package stream_test

import (
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"xcql/internal/obs"
	"xcql/internal/registry"
	. "xcql/internal/stream"
	"xcql/internal/xcql"
	"xcql/internal/xq"
)

// The continuous-query tests run in the external test package because
// the standing-query core they drive (internal/registry) imports this
// package. The dot import and the aliases below keep them reading like
// the internal tests; export_test.go lends the internal helpers.

// Result is one continuous-query delivery.
type Result = registry.Result

var (
	NewContinuousQuery = registry.NewContinuousQuery

	sensorStructure       = SensorStructure
	ts                    = TS
	rootFragment          = RootFragment
	eventFragment         = EventFragment
	chaosTraffic          = ChaosTraffic
	evalOver              = EvalOver
	itoa                  = Itoa
	startFaultyServer     = StartFaultyServer
	testDialOptions       = SeededDialOptions
	waitFor               = WaitFor
	openSegT              = OpenSegT
	assertNoGoroutineLeak = AssertNoGoroutineLeak
)

const chaosQuery = ChaosQuery

func TestContinuousQueryDeltas(t *testing.T) {
	s := NewServer("sensors", sensorStructure(t))
	defer s.Close()
	c := NewClient("sensors", s.Structure())
	defer c.Close()

	rt := xcql.NewRuntime()
	rt.RegisterStream("sensors", c.Store())
	q := rt.MustCompile(`for $e in stream("sensors")//event where $e/value > 40 return $e/value`, xcql.QaCPlus)

	var mu sync.Mutex
	var results []Result
	cq := NewContinuousQuery(q, func(r Result) {
		mu.Lock()
		results = append(results, r)
		mu.Unlock()
	})
	clock := ts("2003-06-01T00:00:00")
	cq.Clock = func() time.Time { return clock }
	cq.Attach(c)

	c.Apply(rootFragment())
	c.Apply(eventFragment(1, "2003-01-02T00:00:00", "35")) // below threshold
	c.Apply(eventFragment(2, "2003-01-03T00:00:00", "41"))
	c.Apply(eventFragment(3, "2003-01-04T00:00:00", "55"))

	mu.Lock()
	defer mu.Unlock()
	if len(results) != 4 {
		t.Fatalf("evaluations = %d", len(results))
	}
	// nothing new on the first two arrivals
	if len(results[0].Delta) != 0 || len(results[1].Delta) != 0 {
		t.Fatalf("early deltas = %v %v", results[0].Delta, results[1].Delta)
	}
	if strings.Join(xq.Strings(results[2].Delta), ",") != "41" {
		t.Fatalf("delta 3 = %v", results[2].Delta)
	}
	if strings.Join(xq.Strings(results[3].Delta), ",") != "55" {
		t.Fatalf("delta 4 = %v", results[3].Delta)
	}
	// the full result accumulates
	if len(results[3].Items) != 2 {
		t.Fatalf("items = %v", results[3].Items)
	}
}

func TestContinuousQueryResetDelta(t *testing.T) {
	c := NewClient("sensors", sensorStructure(t))
	rt := xcql.NewRuntime()
	rt.RegisterStream("sensors", c.Store())
	q := rt.MustCompile(`stream("sensors")//event/value`, xcql.QaC)
	var last Result
	cq := NewContinuousQuery(q, func(r Result) { last = r })
	cq.Clock = func() time.Time { return ts("2003-06-01T00:00:00") }
	c.Apply(rootFragment())
	c.Apply(eventFragment(1, "2003-01-02T00:00:00", "42"))
	if err := cq.Evaluate(); err != nil {
		t.Fatal(err)
	}
	if len(last.Delta) != 1 {
		t.Fatalf("first delta = %v", last.Delta)
	}
	if err := cq.Evaluate(); err != nil {
		t.Fatal(err)
	}
	if len(last.Delta) != 0 {
		t.Fatal("repeat evaluation should be delta-empty")
	}
	cq.ResetDelta()
	if err := cq.Evaluate(); err != nil {
		t.Fatal(err)
	}
	if len(last.Delta) != 1 {
		t.Fatal("reset should replay deltas")
	}
}

func TestContinuousQueryInvalidatedOnGap(t *testing.T) {
	c := NewClient("sensors", sensorStructure(t))
	rt := xcql.NewRuntime()
	rt.RegisterStream("sensors", c.Store())
	q := rt.MustCompile(`for $e in stream("sensors")//event where $e/value > 40 return $e/value`, xcql.QaCPlus)

	var mu sync.Mutex
	var results []Result
	cq := NewContinuousQuery(q, func(r Result) {
		mu.Lock()
		results = append(results, r)
		mu.Unlock()
	})
	cq.Clock = func() time.Time { return ts("2003-06-01T00:00:00") }
	cq.Attach(c)

	c.Apply(rootFragment().WithSeq(1))
	c.Apply(eventFragment(1, "2003-01-02T00:00:00", "41").WithSeq(2))
	// seq 3 is lost; 4 arrives and invalidates the query
	c.Apply(eventFragment(3, "2003-01-04T00:00:00", "55").WithSeq(4))

	mu.Lock()
	if len(results) != 3 {
		t.Fatalf("evaluations = %d", len(results))
	}
	if results[1].Degraded != "" {
		t.Fatal("pre-gap result marked degraded")
	}
	last := results[2]
	if last.Degraded == "" {
		t.Fatal("post-gap result not marked degraded")
	}
	// invalidation reset the delta state: everything visible re-emits
	if strings.Join(xq.Strings(last.Delta), ",") != "41,55" {
		t.Fatalf("post-gap delta = %v", last.Delta)
	}
	mu.Unlock()
	// consumers can re-arm after handling the degradation
	cq.ClearDegraded()
	if err := cq.Evaluate(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if got := results[len(results)-1]; got.Degraded != "" {
		t.Fatal("ClearDegraded did not clear")
	}
}

// TestChaosConvergence is the seeded end-to-end chaos run the acceptance
// criteria call for: a continuous query consumes a TCP stream whose
// transport drops, duplicates, reorders and resets mid-frame (≥1 drop
// and ≥1 disconnect are asserted on the injector), and the client must
// converge to exactly the fault-free continuous-query result — or have
// reported an explicit gap.
func TestChaosConvergence(t *testing.T) {
	const events = 40
	traffic := chaosTraffic(events)

	// --- baseline: the same traffic with a perfect transport ------------
	baseline := NewClient("sensors", sensorStructure(t))
	for _, f := range traffic {
		baseline.Apply(f)
	}
	want := evalOver(t, baseline.Store())
	if len(want) == 0 {
		t.Fatal("baseline query selected nothing; the comparison would be vacuous")
	}

	// --- chaos run ------------------------------------------------------
	s := NewServer("sensors", sensorStructure(t))
	defer s.Close()
	fi := NewFaultInjector(FaultPlan{
		Seed:        42,
		DropProb:    0.15,
		DupProb:     0.10,
		ReorderProb: 0.10,
		ResetEvery:  9,
	})
	addr := startFaultyServer(t, s, ServeOptions{Faults: fi})

	s.Publish(traffic[0])
	c, err := Dial(addr, testDialOptions(42))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var mu sync.Mutex
	var results []Result
	sawDegraded := false
	rt := xcql.NewRuntime()
	rt.RegisterStream("sensors", c.Store())
	cq := NewContinuousQuery(rt.MustCompile(chaosQuery, xcql.QaCPlus), func(r Result) {
		mu.Lock()
		results = append(results, r)
		if r.Degraded != "" {
			sawDegraded = true
		}
		mu.Unlock()
	})
	cq.Clock = func() time.Time { return ts("2003-06-01T00:00:00") }
	cq.Attach(c)

	// live publish: fragments race the faults in flight. Pacing is
	// condition-based: wait (briefly) for the injector to see the frame
	// rather than sleeping a fixed wall-clock tick — while an injected
	// reset has the transport down the count stalls, and the short
	// timeout moves on so the client's replay path gets exercised.
	for _, f := range traffic[1:] {
		before := fi.Stats().Frames
		s.Publish(f)
		waitFor(t, 50*time.Millisecond, func() bool { return fi.Stats().Frames > before })
	}
	// orderly shutdown triggers the client's final catch-up pass
	s.Close()
	converged := waitFor(t, 15*time.Second, func() bool {
		st := c.Stats()
		return c.Store().Len() == len(traffic) && st.Missing == 0
	})
	t.Logf("converged=%v store=%d/%d stats=%+v injector=%v",
		converged, c.Store().Len(), len(traffic), c.Stats(), fi)

	// the acceptance criteria: the run must actually have been hostile
	if fs := fi.Stats(); fs.Dropped < 1 || fs.Resets < 1 {
		t.Fatalf("chaos run was too gentle: %v", fi)
	}
	st := c.Stats()
	if st.Reconnects == 0 {
		t.Fatal("client never reconnected despite injected resets")
	}

	if converged {
		got := evalOver(t, c.Store())
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("chaos result diverged:\n got %v\nwant %v\n(stats %+v)", got, want, st)
		}
		if st.Lost != 0 {
			t.Fatalf("converged but reports %d lost", st.Lost)
		}
	} else {
		// not converging is only acceptable with an explicit gap on record
		if _, degraded := c.Degraded(); !degraded {
			t.Fatalf("silent divergence: store %d/%d, stats %+v", c.Store().Len(), len(traffic), st)
		}
	}

	// along the way, the continuous query must have been told about the
	// turbulence (drops happened, so gaps fired and invalidated it)
	mu.Lock()
	defer mu.Unlock()
	if st.Gaps > 0 && !sawDegraded {
		t.Fatal("gaps were detected but no continuous result was marked degraded")
	}
	if len(results) == 0 {
		t.Fatal("continuous query never evaluated")
	}
}

// TestSnapshotBootstrapBeyondReplayWindow is the acceptance test for the
// durable bootstrap: a reconnecting client whose gap exceeds the
// server's replay window used to be forced into an unrecoverable gap
// (TestResumeWindowSlid); with a durable log attached it must instead
// bootstrap the missing prefix from the log, converge to the
// byte-identical standing query result, and never trip the continuous
// query's Invalidate.
func TestSnapshotBootstrapBeyondReplayWindow(t *testing.T) {
	const events = 26
	traffic := chaosTraffic(events)

	// baseline: the standing result over a perfect transport
	baseline := NewClient("sensors", sensorStructure(t))
	for _, f := range traffic {
		baseline.Apply(f)
	}
	want := evalOver(t, baseline.Store())
	if len(want) == 0 {
		t.Fatal("baseline query selected nothing; the comparison would be vacuous")
	}

	seg := openSegT(t)
	s := NewServer("sensors", sensorStructure(t))
	defer s.Close()
	s.SetHistoryLimit(4)
	s.AttachDurable(seg)
	// the 7th frame dies mid-frame, cutting the client off while the
	// remaining traffic floods past the 4-slot window
	fi := NewFaultInjector(FaultPlan{Seed: 7, ResetEvery: 7})
	addr := startFaultyServer(t, s, ServeOptions{Faults: fi})

	for _, f := range traffic[:6] {
		s.Publish(f)
	}
	opts := DialOptions{
		Reconnect:      true,
		InitialBackoff: 150 * time.Millisecond,
		MaxBackoff:     time.Second,
		Rand:           rand.New(rand.NewSource(7)),
	}
	c, err := Dial(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// even the fresh join is a bootstrap: the window holds seqs 3..6 but
	// the durable floor reaches genesis, so the client gets all 6
	if !waitFor(t, 2*time.Second, func() bool { return c.Store().Len() == 6 }) {
		t.Fatalf("initial bootstrap incomplete: %d of 6 (stats %+v)", c.Store().Len(), c.Stats())
	}

	var mu sync.Mutex
	invalidated := 0
	rt := xcql.NewRuntime()
	rt.RegisterStream("sensors", c.Store())
	cq := NewContinuousQuery(rt.MustCompile(chaosQuery, xcql.QaCPlus), func(r Result) {
		mu.Lock()
		if r.Degraded != "" {
			invalidated++
		}
		mu.Unlock()
	})
	cq.Clock = func() time.Time { return ts("2003-06-01T00:00:00") }
	cq.Attach(c)

	// frame 7 resets the connection mid-frame; the rest of the traffic
	// slides the window far past the client's position while it backs off
	for _, f := range traffic[6:] {
		s.Publish(f)
	}

	if !waitFor(t, 15*time.Second, func() bool {
		st := c.Stats()
		return c.Store().Len() == len(traffic) && st.Missing == 0 && st.ReconnectSnapshot >= 1
	}) {
		t.Fatalf("never converged via bootstrap: store %d/%d, stats %+v",
			c.Store().Len(), len(traffic), c.Stats())
	}

	st := c.Stats()
	if st.Lost != 0 {
		t.Fatalf("bootstrap wrote fragments off as lost: %+v", st)
	}
	if st.ReconnectDegraded != 0 {
		t.Fatalf("reconnect classified degraded despite durable coverage: %+v", st)
	}
	if reason, degraded := c.Degraded(); degraded {
		t.Fatalf("client degraded despite durable coverage: %s", reason)
	}
	if st.Gaps != 0 {
		t.Fatalf("bootstrapped replay produced sequence gaps: %+v (gaps %v)", st, c.Gaps())
	}
	mu.Lock()
	inv := invalidated
	mu.Unlock()
	if inv != 0 {
		t.Fatalf("continuous query was invalidated %d times; bootstrap must not trip Invalidate", inv)
	}

	// the standing result is byte-identical to the fault-free baseline
	got := evalOver(t, c.Store())
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("bootstrapped result diverged:\n got %v\nwant %v", got, want)
	}

	ss := s.Stats()
	if ss.Bootstraps < 1 {
		t.Fatalf("server never bridged from the durable log: %+v", ss)
	}
	if ss.StorageErrors != 0 {
		t.Fatalf("durable log reported errors: %+v", ss)
	}
	t.Logf("bootstrap converged: client %+v, server bootstraps=%d floor=%d",
		st, ss.Bootstraps, ss.ResumeFloor)
}

// The watermark, queue-depth and latency-quantile gauges all surface
// through the metrics registry — including the headline cq_latency_p99.
func TestWatermarkAndLatencyMetrics(t *testing.T) {
	r := obs.NewRegistry()
	s := NewServer("sensors", sensorStructure(t))
	defer s.Close()
	s.RegisterMetrics(r, "server")
	c := NewClient("sensors", sensorStructure(t))
	defer c.Close()
	c.RegisterMetrics(r, "client")

	rt := xcql.NewRuntime()
	rt.RegisterStream("sensors", c.Store())
	q := rt.MustCompile(`count(stream("sensors")//event)`, xcql.QaCPlus)
	cq := NewContinuousQuery(q, nil)
	clock := ts("2003-06-01T00:00:00")
	cq.Clock = func() time.Time { return clock }
	cq.RegisterMetrics(r, "cq")
	cq.Attach(c)

	sub := s.Subscribe(16, false)
	defer sub.Cancel()
	s.Publish(rootFragment())
	s.Publish(eventFragment(1, "2003-01-02T00:00:00", "42"))
	for sub.QueueDepth() > 0 {
		c.Apply(<-sub.C())
	}

	vals := map[string]int64{}
	r.Each(func(name string, v int64) { vals[name] = v })
	for _, name := range []string{
		"server_watermark_ns", "client_watermark_ns",
		"cq_latency_p50", "cq_latency_p90", "cq_latency_p99",
		"client_delivery_p99",
	} {
		if _, ok := vals[name]; !ok {
			t.Errorf("gauge %s not registered", name)
		}
	}
	want := ts("2003-01-02T00:00:00").UnixNano()
	if vals["server_watermark_ns"] != want || vals["client_watermark_ns"] != want {
		t.Errorf("watermark gauges = %d / %d, want %d",
			vals["server_watermark_ns"], vals["client_watermark_ns"], want)
	}
	if vals["cq_evals"] != 2 {
		t.Errorf("cq_evals = %d, want 2", vals["cq_evals"])
	}
	if vals["cq_latency_count"] != 2 || vals["cq_latency_p99"] <= 0 {
		t.Errorf("cq latency histogram not populated: count=%d p99=%d",
			vals["cq_latency_count"], vals["cq_latency_p99"])
	}
	if vals["client_delivery_count"] != 2 {
		t.Errorf("client_delivery_count = %d, want 2", vals["client_delivery_count"])
	}
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "cq_latency_p99 ") {
		t.Errorf("exposition missing cq_latency_p99:\n%s", b.String())
	}
}

// After Close of both ends under fault injection — drops, duplicates,
// reorders and connection resets all active — every transport, reader
// and reconnect goroutine must exit. The subscription machinery may not
// leave anything behind.
func TestNoGoroutineLeakAfterClose(t *testing.T) {
	baseline := runtime.NumGoroutine()

	s := NewServer("sensors", sensorStructure(t))
	// Manage the listener by hand (not t.Cleanup) so it is fully closed
	// before the leak assertion runs.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fi := NewFaultInjector(FaultPlan{Seed: 42, DropProb: 0.2, DupProb: 0.2, ReorderProb: 0.2, ResetEvery: 9})
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		_ = ServeTCPOptions(s, ln, ServeOptions{Faults: fi})
	}()

	s.Publish(rootFragment())
	for i := 1; i <= 25; i++ {
		s.Publish(eventFragment(i, "2003-01-02T00:00:00", "v"))
	}

	c, err := Dial(ln.Addr().String(), testDialOptions(42))
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}

	// Ride a continuous query on the stream so its evaluation path is
	// part of what must wind down cleanly.
	rt := xcql.NewRuntime()
	rt.RegisterStream("sensors", c.Store())
	cq := NewContinuousQuery(rt.MustCompile(`count(stream("sensors")//event)`, xcql.QaCPlus), func(Result) {})
	cq.Clock = func() time.Time { return ts("2003-06-01T00:00:00") }
	cq.Limits = xcql.Limits{MaxSteps: 100000, Timeout: time.Second}
	cq.Attach(c)

	waitFor(t, 2*time.Second, func() bool { return c.Store().Len() > 1 })

	// Teardown in dependency order, waiting for the acceptor to return.
	c.Close()
	s.Close()
	ln.Close()
	select {
	case <-serveDone:
	case <-time.After(2 * time.Second):
		t.Fatal("ServeTCPOptions did not return after listener close")
	}

	assertNoGoroutineLeak(t, baseline)
}
