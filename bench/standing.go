package main

// standing-stream: standing queries evaluated as fillers arrive. Each op
// publishes one arrival (account version announcing a new transaction
// hole, then the transaction event) on a stream server; the fragments
// cross one TCP connection into a client store, and the benchmark's
// fragment listener applies each to the standing-query registry, which
// delivers every registration's delta through OnResult. The op ends with
// the arrival's last delivery.

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xcql"
	"xcql/internal/fragment"
	"xcql/internal/registry"
	"xcql/internal/stream"
	"xcql/internal/tagstruct"
	"xcql/internal/xq"
)

const (
	// preloadArrivals are published before the queries register, so the
	// per-arrival cost drifts little over the timed window.
	preloadArrivals = 1500
	// warmArrivals run untimed after registration.
	warmArrivals = 20
)

// standingQueries are the registered queries: the filter-and-construct
// query of cmd/streamdemo and the paper's windowed per-account sum.
var standingQueries = []struct {
	name, src string
	monotone  bool // results never leave: summed deltas = final result
}{
	{"filter", `for $t in stream("credit")//transaction where $t/amount > 700
	            return <big id="{$t/@id}">{ $t/amount/text() }</big>`, true},
	{"window", `for $a in stream("credit")//account
	            where sum($a/transaction?[now-PT1H,now]/amount) > 1500
	            return $a/customer`, false},
}

// standingRegs lists the registrations: the filter query incremental
// and the window query in full mode, two identical registrations of each
// so the registry shares an incremental engine and a full evaluation.
// (The window is relative to now, so an incremental registration of it
// would recompute every account on each clock advance: as dear as full
// mode, and it would double the cost of an arrival.)
var standingRegs = []struct {
	query       int
	incremental bool
}{
	{0, true}, {0, true},
	{1, false}, {1, false},
}

// standingReg is one registration's delivery log.
type standingReg struct {
	reg      *registry.Registration
	query    int
	full     bool
	last     xq.Sequence // full mode: the latest Items
	seen     map[string]bool
	dupDelta int // delta items delivered twice (monotone queries)
	bad      []string
}

type standingStream struct {
	structure *tagstruct.Structure
	cs        *creditStream
	preload   [][]*fragment.Fragment
	preloadAt time.Time // event time of the last preloaded arrival
	tr        *tracer

	server *stream.Server
	client *stream.Client
	ln     net.Listener
	served chan struct{}
	engine *xcql.Engine
	reg    *registry.Registry
	regs   []*standingReg
	clock  atomic.Int64 // registry evaluation instant, unix nanos

	// the prepared arrival
	arr   []*fragment.Fragment
	arrAt time.Time

	mu        sync.Mutex
	delivered int // OnResult calls for the current arrival
	applied   []applySpan
	pending   int // listener calls that end the current arrival
	done      chan struct{}
	gaps      atomic.Int64

	pubEnd []time.Duration

	// bytes the TCP connection carried, both ways, and the traced-pass
	// baselines
	wire      atomic.Int64
	baseWire  int64
	base      registry.Stats
	baseGroup groupTotals
}

// applySpan is one listener call: when it started and ended.
type applySpan struct{ start, end time.Duration }

// recordDeliveries records a stream.deliver span per fragment of an
// arrival: from the later of its publish returning and the client
// finishing the previous fragment, to its listener starting — the
// transport and client ingest time, without the wait behind the previous
// fragment's listener.
func recordDeliveries(tr *tracer, pubEnd []time.Duration, applied []applySpan) {
	for k, a := range applied {
		from := pubEnd[k]
		if k > 0 {
			from = max(from, applied[k-1].end)
		}
		tr.record("stream.deliver", min(from, a.start), a.start)
	}
}

func newStandingStream(seed uint64) workload {
	s := &standingStream{structure: tagstruct.MustParseString(creditStructure), cs: newCreditStream(seed)}
	for range preloadArrivals {
		arr, at := s.cs.next()
		s.preload = append(s.preload, arr)
		s.preloadAt = at
	}
	return s
}

func (s *standingStream) setup(tr *tracer) ([]time.Duration, error) {
	s.tr = tr
	times, err := timeSetups(s.start, s.shutdown)
	if err != nil {
		return nil, err
	}
	s.preload = nil // inputs the client store now holds its own copy of
	for range warmArrivals {
		s.prepare(0)
		if _, _, err := s.op(0); err != nil {
			return nil, err
		}
	}
	return times, nil
}

// start is the program's set-up: server, TCP, client catch-up over the
// opening document and the preloaded history, registry, registrations
// and the seeding evaluation.
func (s *standingStream) start() error {
	s.server = stream.NewServer("credit", s.structure)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	cl := countingListener{ln, &s.wire}
	s.ln = cl
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		// the subscription buffer holds the opening document and the
		// whole preload, so the burst that publishes them never
		// overflows into gaps
		opts := stream.ServeOptions{SubscriptionBuffer: len(s.cs.opening) + 2*preloadArrivals}
		_ = stream.ServeTCPOptions(s.server, cl, opts)
	}()
	s.client, err = stream.DialTCP(ln.Addr().String())
	if err != nil {
		return err
	}
	s.server.PublishAll(s.cs.opening)
	for _, arr := range s.preload {
		s.server.PublishAll(arr)
	}
	if err := waitLen(s.client.Store(), len(s.cs.opening)+2*preloadArrivals); err != nil {
		return err
	}
	s.clock.Store(s.preloadAt.UnixNano())

	s.engine = xcql.NewEngine()
	s.engine.AttachClient(s.client)
	s.reg = s.engine.Registry()
	s.reg.SetClock(func() time.Time { return time.Unix(0, s.clock.Load()).UTC() })
	s.regs = nil
	for _, r := range standingRegs {
		q, err := s.engine.Compile(standingQueries[r.query].src, xcql.QaCPlus)
		if err != nil {
			return err
		}
		sr := &standingReg{query: r.query, full: !r.incremental, seen: map[string]bool{}}
		sr.reg, err = s.reg.Register(q, registry.Options{Incremental: r.incremental, OnResult: sr.onResult(s)})
		if err != nil {
			return err
		}
		s.regs = append(s.regs, sr)
	}
	// the benchmark's own listener does what Registry.AttachClient does,
	// timing each apply
	s.client.OnGap(func(g stream.Gap) {
		s.gaps.Add(1)
		s.reg.InvalidateAll(g.String())
	})
	s.client.OnFragment(s.onFragment)
	s.reg.Evaluate()
	return nil
}

func (s *standingStream) onFragment(f *fragment.Fragment) {
	start := s.tr.now()
	s.reg.Apply(f)
	end := s.tr.now()
	s.mu.Lock()
	s.applied = append(s.applied, applySpan{start, end})
	if s.done != nil && len(s.applied) == s.pending {
		s.done <- struct{}{}
		s.done = nil
	}
	s.mu.Unlock()
}

func (sr *standingReg) onResult(s *standingStream) func(registry.Result) {
	return func(res registry.Result) {
		s.mu.Lock()
		s.delivered++
		s.mu.Unlock()
		switch {
		case res.Err != nil:
			sr.bad = append(sr.bad, "error: "+res.Err.Error())
		case res.Degraded != "":
			sr.bad = append(sr.bad, "degraded: "+res.Degraded)
		}
		if sr.full {
			sr.last = res.Items
		}
		if standingQueries[sr.query].monotone {
			for _, it := range res.Delta {
				k := stream.ItemKey(it)
				if sr.seen[k] {
					sr.dupDelta++
				}
				sr.seen[k] = true
			}
		}
	}
}

// prepare generates the next arrival.
func (s *standingStream) prepare(int) {
	s.arr, s.arrAt = s.cs.next()
}

func (s *standingStream) op(int) (string, func() bool, error) {
	s.clock.Store(s.arrAt.UnixNano())
	done := make(chan struct{}, 1)
	s.mu.Lock()
	s.delivered, s.applied, s.pending, s.done = 0, s.applied[:0], len(s.arr), done
	s.mu.Unlock()
	s.pubEnd = s.pubEnd[:0]
	for _, f := range s.arr {
		sp := s.tr.begin("stream.publish")
		s.server.Publish(f)
		s.tr.end(sp)
		s.pubEnd = append(s.pubEnd, s.tr.now())
	}
	<-done
	s.mu.Lock()
	delivered := s.delivered
	recordDeliveries(s.tr, s.pubEnd, s.applied)
	for _, a := range s.applied {
		s.tr.record("registry.apply", a.start, a.end)
	}
	s.mu.Unlock()
	want := len(s.arr) * len(s.regs)
	return "arrival", func() bool { return delivered == want }, nil
}

func (s *standingStream) tail() float64 { return 95 }

// groupTotals sums the evaluation counters of every sharing group.
type groupTotals struct{ touched, handlers, unitHits, unitMisses, hwm int64 }

func registryTotals(r *registry.Registry) groupTotals {
	var t groupTotals
	for _, g := range r.Groups() {
		t.touched += g.Stats.FillersScanned + g.Stats.TSIDIndexHits + g.Stats.LabelRangeHits
		t.handlers += g.Stats.HandlerInvocations
		t.unitHits += g.Stats.SharedUnitHits
		t.unitMisses += g.Stats.SharedUnitMisses
		t.hwm = max(t.hwm, g.Stats.BufferHWMBytes)
	}
	return t
}

func (s *standingStream) layerStart() {
	s.base, s.baseGroup, s.baseWire = s.reg.Stats(), registryTotals(s.reg), s.wire.Load()
}

func (s *standingStream) layerMetrics(m metrics, _, ops int) {
	n := float64(max(ops, 1))
	st, g := s.reg.Stats(), registryTotals(s.reg)
	evals := float64(st.SharedEvals - s.base.SharedEvals)
	saved := float64(st.SharedSaved - s.base.SharedSaved)
	m.set("stream.wire_bytes", float64(s.wire.Load()-s.baseWire)/n, "B")
	m.set("registry.fillers_touched", float64(g.touched-s.baseGroup.touched)/n, "count")
	m.set("registry.shared_evals", evals/n, "count")
	m.set("registry.shared_saved", saved/n, "count")
	m.set("registry.share_ratio", ratio(saved, evals+saved), "ratio")
	m.set("registry.fanout", float64(st.Fanout-s.base.Fanout)/n, "count")
	m.set("inc.handler_invocations", float64(g.handlers-s.baseGroup.handlers)/n, "count")
	hits, misses := float64(g.unitHits-s.baseGroup.unitHits), float64(g.unitMisses-s.baseGroup.unitMisses)
	m.set("inc.shared_unit_hit_ratio", ratio(hits, hits+misses), "ratio")
	m.set("inc.buffer_hwm_bytes", float64(g.hwm), "B")
}

// countingListener counts the bytes its connections carry, in both
// directions: what the stream puts on the wire, frames and handshake.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(b []byte) (int, error) {
	k, err := c.Conn.Read(b)
	c.n.Add(int64(k))
	return k, err
}

func (c countingConn) Write(b []byte) (int, error) {
	k, err := c.Conn.Write(b)
	c.n.Add(int64(k))
	return k, err
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// finish checks every registration's final standing result against a
// one-shot evaluation at the final instant.
func (s *standingStream) finish() error {
	defer s.shutdown()
	at := time.Unix(0, s.clock.Load()).UTC()
	var errs []string
	for i, sr := range s.regs {
		q, err := s.engine.Compile(standingQueries[sr.query].src, xcql.QaCPlus)
		if err != nil {
			return err
		}
		want, err := q.Eval(at)
		if err != nil {
			return err
		}
		got := sr.last
		if !sr.full {
			got = sr.reg.ItemsSnapshot()
		}
		if xcql.FormatSequence(got) != xcql.FormatSequence(want) {
			errs = append(errs, fmt.Sprintf("registration %d (%s): standing result differs from one-shot evaluation", i, standingQueries[sr.query].name))
		}
		if standingQueries[sr.query].monotone {
			if sr.dupDelta > 0 {
				errs = append(errs, fmt.Sprintf("registration %d: %d duplicate delta items", i, sr.dupDelta))
			}
			if len(sr.seen) != len(want) {
				errs = append(errs, fmt.Sprintf("registration %d: summed deltas hold %d items, result %d", i, len(sr.seen), len(want)))
			}
		}
		if len(sr.bad) > 0 {
			errs = append(errs, fmt.Sprintf("registration %d: %d bad deliveries, first %s", i, len(sr.bad), sr.bad[0]))
		}
	}
	if n := s.gaps.Load(); n > 0 {
		errs = append(errs, fmt.Sprintf("client saw %d gaps", n))
	}
	if reason, bad := s.client.Degraded(); bad {
		errs = append(errs, "client degraded: "+reason)
	}
	if len(errs) > 0 {
		return fmt.Errorf("%s", strings.Join(errs, "; "))
	}
	return nil
}

func (s *standingStream) shutdown() {
	s.client.Close()
	s.server.Close()
	_ = s.ln.Close()
	<-s.served
}
