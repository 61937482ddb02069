package main

// ingest-query: writes beside reads on the store and plans of
// history-query. Set-up is a restart: a segment store whose log holds the
// auction history is opened (crash recovery), the server is rebuilt from
// it, a client catches up and a warm-up query builds the label index.
// Each op publishes one update arrival through the durable server (fsync
// on every append), waits until the client has applied it, and then runs
// a read-your-write query under QaC++ or QaC+ that must observe it.

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"xcql"
	"xcql/internal/fragment"
	"xcql/internal/segstore"
	"xcql/internal/stream"
)

// ingestBase is the valid time of the first timed arrival: after every
// version of the history.
var ingestBase = historyInstant.Add(time.Hour)

// Op mix: bidShare of arrivals are bids, the rest person versions;
// labelShare of reads run under QaC++. A QaC++ read right after a write
// pays the label-index rebuild, which dominates its cost, so the QaC++
// ops (75%) form the upper band: p50 and p90 both sit inside the QaC++
// bands.
const (
	bidShare   = 0.8
	labelShare = 0.75
)

// timedLog wraps the durable log so the benchmark can time each append
// as a child of the publish that made it. While collecting, it keeps the
// fragments it was handed, whose encoding is the log's frame payload.
type timedLog struct {
	*segstore.Store
	tr      *tracer
	publish int // span of the publish in progress
	collect bool
	logged  []*fragment.Fragment
}

func (l *timedLog) Append(f *fragment.Fragment) error {
	sp := l.tr.beginUnder("segstore.append", l.publish)
	err := l.Store.Append(f)
	l.tr.end(sp)
	if l.collect {
		l.logged = append(l.logged, f)
	}
	return err
}

type ingestQuery struct {
	data *auctionHistory
	tr   *tracer
	ops  *rand.Rand
	dir  string

	seg        *segstore.Store
	log        *timedLog
	server     *stream.Server
	client     *stream.Client
	consuming  chan struct{}
	engine     *xcql.Engine
	published  int // fragments published since the last restart
	historyLen int // fragments in the log at set-up
	stats      evalCounters

	mu      sync.Mutex
	applied []applySpan
	pending int // listener calls that end the current op's update
	done    chan struct{}
	pubEnd  []time.Duration

	// the prepared op: the update's fragments, the read-your-write query
	// and the value it must return
	at               time.Time
	frags            []*fragment.Fragment
	class, src, want string
	mode             xcql.Mode

	baseSeg segstore.Stats // traced-phase baseline
}

func newIngestQuery(seed uint64) workload {
	return &ingestQuery{data: genAuctionHistory(seed), ops: newRNG(seed ^ 0x1a9)}
}

func (w *ingestQuery) setup(tr *tracer) ([]time.Duration, error) {
	w.tr = tr
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "ingest-")
	if err != nil {
		return nil, err
	}
	w.dir = dir
	if err := w.writeHistory(); err != nil {
		return nil, err
	}
	// from here on the log holds the history; the benchmark keeps only
	// the latest person and auction versions it derives updates from
	w.historyLen = len(w.data.frags)
	w.data.frags = nil
	return timeSetups(w.restart, w.shutdown)
}

// writeHistory is input generation: the auction history is published
// once through a durable server into the log the restarts recover from.
// It skips fsync, which changes nothing on disk after Close.
func (w *ingestQuery) writeHistory() error {
	seg, _, err := segstore.Open(filepath.Join(w.dir, "log"), segstore.Options{NoSync: true})
	if err != nil {
		return err
	}
	srv := stream.NewServer("auction", w.data.structure)
	srv.AttachDurable(seg)
	srv.PublishAll(w.data.frags)
	srv.Close()
	return seg.Close()
}

// restart is the program's set-up: recovery, server rebuild, client
// catch-up and a warm-up query that builds the label index.
func (w *ingestQuery) restart() error {
	seg, rep, err := segstore.Open(filepath.Join(w.dir, "log"), segstore.Options{})
	if err != nil {
		return err
	}
	if rep.Degraded != "" || rep.Frames != w.historyLen {
		return fmt.Errorf("recovery: %s (want %d frames)", rep, w.historyLen)
	}
	w.seg = seg
	w.log = &timedLog{Store: seg, tr: w.tr, publish: -1}
	w.server, err = stream.RecoverServer("auction", w.data.structure, w.log)
	if err != nil {
		return err
	}
	w.client = stream.NewClient("auction", w.data.structure)
	sub := w.server.Subscribe(1024, true)
	w.consuming = make(chan struct{})
	go func() {
		defer close(w.consuming)
		w.client.Consume(sub)
	}()
	if err := waitLen(w.client.Store(), w.historyLen); err != nil {
		return err
	}
	w.client.OnFragment(w.onFragment)
	w.engine = xcql.NewEngine()
	w.engine.AttachClient(w.client)
	w.published = 0
	_, err = w.engine.Eval(`count(stream("auction")//bidder)`, ingestBase)
	w.client.Store().Labels()
	return err
}

func (w *ingestQuery) onFragment(*fragment.Fragment) {
	now := w.tr.now()
	w.mu.Lock()
	w.applied = append(w.applied, applySpan{now, now})
	if w.done != nil && len(w.applied) == w.pending {
		w.done <- struct{}{}
		w.done = nil
	}
	w.mu.Unlock()
}

// prepare builds op i's update and its read-your-write query.
func (w *ingestQuery) prepare(i int) {
	w.at = ingestBase.Add(time.Duration(i+1) * time.Second)
	if w.ops.Float64() < bidShare {
		a := w.ops.IntN(len(w.data.opens))
		bidder := fmt.Sprintf("bidder%d", i)
		w.want = fmt.Sprintf("%d.%02d", 1+w.ops.IntN(50), w.ops.IntN(100))
		w.frags = w.data.addBid(a, w.at, bidder, w.want)
		w.class = "bid"
		w.src = fmt.Sprintf(`stream("auction")//bidder[personref/@person = "%s"]/increase/text()`, bidder)
	} else {
		p := w.ops.IntN(len(w.data.persons))
		w.want = fmt.Sprintf("+9 (%07d) %03d", i, w.ops.IntN(1000))
		w.data.persons[p] = personVersion(w.data.persons[p], w.at, w.want)
		w.frags = []*fragment.Fragment{w.data.persons[p]}
		w.class = "person"
		w.src = fmt.Sprintf(`stream("auction")/site/people/person[@id = "person%d"]#[last]/phone/text()`, p)
	}
	w.mode = xcql.QaCPlus
	if w.ops.Float64() < labelShare {
		w.mode = xcql.QaCPlusPlus
	}
	w.class += "/" + w.mode.String()
}

func (w *ingestQuery) op(i int) (string, func() bool, error) {
	frags, class, want := w.frags, w.class, w.want
	done := make(chan struct{}, 1)
	w.mu.Lock()
	w.applied, w.pending, w.done = w.applied[:0], len(frags), done
	w.mu.Unlock()
	w.pubEnd = w.pubEnd[:0]
	for _, f := range frags {
		sp := w.tr.begin("stream.publish")
		w.log.publish = sp
		w.server.Publish(f)
		w.tr.end(sp)
		w.pubEnd = append(w.pubEnd, w.tr.now())
	}
	w.published += len(frags)
	<-done
	w.mu.Lock()
	recordDeliveries(w.tr, w.pubEnd, w.applied)
	w.mu.Unlock()
	out, err := timedRead(w.tr, w.engine, w.client.Store(), w.src, w.mode, w.at, &w.stats)
	if err != nil {
		return class, nil, err
	}
	return class, func() bool {
		if out != want {
			fmt.Printf("op %d (%s): read %q, want %q\n", i, class, out, want)
		}
		return out == want
	}, nil
}

// waitLen waits until a client store holds n fragments.
func waitLen(st *fragment.Store, n int) error {
	deadline := time.Now().Add(time.Minute)
	for st.Len() < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("client caught up on %d of %d fragments", st.Len(), n)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// tail is p90, not the p98 a run's 600-900 ops would allow: an op is
// one fsync plus a memory-bound label rebuild, so a second or two of
// contention from other tenants of the host moves p98 by up to half
// while p90 moves by a few percent.
func (w *ingestQuery) tail() float64 { return 90 }

func (w *ingestQuery) layerStart() {
	w.baseSeg = w.seg.Stats()
	w.log.collect = true
}

func (w *ingestQuery) layerMetrics(m metrics, traced, ops int) {
	n := float64(max(ops, 1))
	st := w.seg.Stats()
	written := float64(st.SegmentBytes - w.baseSeg.SegmentBytes)
	payload := 0
	for _, f := range w.log.logged {
		payload += len(f.String())
	}
	w.stats.layerMetrics(m, traced)
	m.set("segstore.fsyncs", float64(st.Fsyncs-w.baseSeg.Fsyncs)/n, "count")
	m.set("segstore.bytes_written", written/n, "B")
	m.set("segstore.write_amp", ratio(written, float64(payload)), "ratio")
}

func (w *ingestQuery) finish() error {
	defer w.shutdown()
	defer os.RemoveAll(w.dir)
	var errs []string
	if st := w.seg.Stats(); st.Appends != int64(w.published) {
		errs = append(errs, fmt.Sprintf("segstore appended %d frames, %d published", st.Appends, w.published))
	}
	if st := w.server.Stats(); st.StorageErrors > 0 {
		errs = append(errs, fmt.Sprintf("%d storage errors", st.StorageErrors))
	}
	if reason, bad := w.client.Degraded(); bad {
		errs = append(errs, "client degraded: "+reason)
	}
	if len(errs) > 0 {
		return fmt.Errorf("%s", strings.Join(errs, "; "))
	}
	return nil
}

func (w *ingestQuery) shutdown() {
	w.client.Close()
	<-w.consuming
	w.server.Close()
	_ = w.seg.Close()
}
