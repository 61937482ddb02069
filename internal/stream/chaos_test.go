package stream

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"xcql/internal/fragment"
	"xcql/internal/xcql"
	"xcql/internal/xq"
)

// chaosTraffic builds the deterministic fragment sequence both the
// baseline and the chaos run consume: the root plus n sensor events with
// increasing values, one minute apart.
func chaosTraffic(n int) []*fragment.Fragment {
	frags := []*fragment.Fragment{rootFragment()}
	base := ts("2003-01-02T00:00:00")
	for i := 1; i <= n; i++ {
		at := base.Add(time.Duration(i) * time.Minute).Format("2006-01-02T15:04:05")
		frags = append(frags, eventFragment(i, at, itoa(30+i)))
	}
	return frags
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

const chaosQuery = `for $e in stream("sensors")//event where $e/value > 40 return $e/value`

// evalOver compiles and runs the chaos query over a store at a pinned
// instant, returning the result items as strings.
func evalOver(t *testing.T, st *fragment.Store) []string {
	t.Helper()
	rt := xcql.NewRuntime()
	rt.RegisterStream("sensors", st)
	q := rt.MustCompile(chaosQuery, xcql.QaCPlus)
	seq, err := q.Eval(ts("2003-06-01T00:00:00"))
	if err != nil {
		t.Fatal(err)
	}
	return xq.Strings(seq)
}

// TestResumeWindowSlid forces the unrecoverable path: the client is cut
// off mid-stream, the server's bounded replay window slides past the cut
// while the client backs off, and the resumed session must surface
// "unrecoverable" instead of pretending continuity.
func TestResumeWindowSlid(t *testing.T) {
	s := NewServer("sensors", sensorStructure(t))
	defer s.Close()
	s.SetHistoryLimit(4)
	// the 7th frame (first after the initial 6) dies mid-frame
	fi := NewFaultInjector(FaultPlan{Seed: 7, ResetEvery: 7})
	addr := startFaultyServer(t, s, ServeOptions{Faults: fi})

	s.Publish(rootFragment())
	for i := 1; i <= 5; i++ {
		s.Publish(eventFragment(i, "2003-01-02T00:00:00", "v"))
	}
	// a long backoff keeps the client away while the window slides
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
	// a fresh registration only replays the 4-slot retained window
	// (seqs 3..6); joining mid-stream like that is not a gap
	if !waitFor(t, 2*time.Second, func() bool { return c.Store().Len() == 4 }) {
		t.Fatalf("initial replay incomplete: %d", c.Store().Len())
	}

	// frame 7 resets the connection mid-frame…
	s.Publish(eventFragment(6, "2003-01-03T00:00:00", "v"))
	// …and 20 more events flood past the 4-slot window while the client
	// is backing off
	for i := 7; i <= 26; i++ {
		s.Publish(eventFragment(i, "2003-01-03T00:00:00", "v"))
	}

	if !waitFor(t, 5*time.Second, func() bool {
		_, degraded := c.Degraded()
		return degraded && c.Stats().Reconnects >= 1
	}) {
		t.Fatalf("no degradation surfaced: stats %+v", c.Stats())
	}
	reason, _ := c.Degraded()
	if !strings.Contains(reason, "unrecoverable") {
		t.Fatalf("reason %q does not say unrecoverable", reason)
	}
	st := c.Stats()
	if st.Lost == 0 {
		t.Fatalf("no fragments written off: %+v", st)
	}
	// the tail inside the window still arrives: the client keeps working
	// in degraded mode rather than halting
	if !waitFor(t, 5*time.Second, func() bool { return c.LastSeq() == s.LatestSeq() }) {
		t.Fatalf("tail never caught up: lastSeq %d vs %d", c.LastSeq(), s.LatestSeq())
	}
}
