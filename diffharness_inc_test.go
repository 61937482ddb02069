package xcql_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"xcql"
	"xcql/internal/fragment"
	"xcql/internal/genstore"
	"xcql/internal/xq"
)

// The incremental cell of the differential harness: every generated
// store/query pair is REPLAYED fragment by fragment through the
// standing-query core — in full re-evaluation mode and with
// WithIncremental(true) — and both must agree byte for byte, on every
// per-arrival delta and on the final standing result, with a test-local
// oracle that shares no code with the core: a plain evaluation per
// arrival and a set difference against the previous one. The
// incremental replays run under every plan × parallelism × cache
// combination; the engine's decomposition differs radically per plan
// (QaC+ indexes by tsid, CaQ degrades to whole-plan recomputation), so
// identical output across the grid pins the tentpole claim: incremental
// evaluation is an execution strategy, not a semantics change.

// replayTrace is the observable output of one fragment-by-fragment
// replay: the serialized delta of every arrival and the final standing
// result.
type replayTrace struct {
	deltas []string
	final  string
}

func (tr replayTrace) String() string {
	return strings.Join(tr.deltas, "\n--\n") + "\n==\n" + tr.final
}

// replayQuery compiles src under (mode, cfg) against a fresh, empty
// store for one replay.
func replayQuery(t *testing.T, ins *genstore.Instance, src string, mode xcql.Mode, cfg execConfig) (*xcql.Store, *xcql.Query) {
	t.Helper()
	var st *xcql.Store
	if ins.Profile.Scan {
		st = fragment.NewScanStore(ins.Structure)
	} else {
		st = fragment.NewStore(ins.Structure)
	}
	e := xcql.NewEngine()
	if !cfg.perQuery {
		e.SetParallelism(cfg.parallelism)
		e.SetCache(cfg.cacheSize)
	}
	e.RegisterStore("s", st)
	q, err := e.Compile(src, mode)
	if err != nil {
		t.Fatalf("compile %q under %s: %v", src, mode, err)
	}
	if cfg.perQuery {
		q = q.WithParallelism(cfg.parallelism).WithCache(cfg.cacheSize)
	}
	return st, q
}

// replayOracle is the reference every core replay is checked against:
// per arrival, one plain evaluation and a set difference on item
// identity against the previous successful evaluation. The clock is the
// running maximum validTime (fragments never "un-happen"; reordered
// histories replay with a monotone clock).
func replayOracle(t *testing.T, ins *genstore.Instance, frags []*xcql.Fragment,
	src string, mode xcql.Mode, cfg execConfig) replayTrace {
	t.Helper()
	st, q := replayQuery(t, ins, src, mode, cfg)
	var tr replayTrace
	var at time.Time
	var last xcql.Sequence
	for _, f := range frags {
		if err := st.Add(f); err != nil {
			t.Fatalf("add filler %d: %v", f.FillerID, err)
		}
		if f.ValidTime.After(at) {
			at = f.ValidTime
		}
		seq, err := q.EvalLimits(context.Background(), at, q.Limits)
		if err != nil {
			tr.deltas = append(tr.deltas, "!error")
			continue
		}
		prev := make(map[string]bool, len(last))
		for _, it := range last {
			prev[xq.ItemKey(it)] = true
		}
		var delta xcql.Sequence
		for _, it := range seq {
			if k := xq.ItemKey(it); !prev[k] {
				prev[k] = true
				delta = append(delta, it)
			}
		}
		tr.deltas = append(tr.deltas, xcql.FormatSequence(delta))
		last = seq
	}
	tr.final = xcql.FormatSequence(last)
	return tr
}

// replayCQ feeds frags one at a time into a fresh store and a continuous
// query (the standing-query core) compiled under (mode, cfg), with the
// evaluation clock pinned like replayOracle's.
func replayCQ(t *testing.T, ins *genstore.Instance, frags []*xcql.Fragment,
	src string, mode xcql.Mode, cfg execConfig, incremental bool) replayTrace {
	t.Helper()
	st, q := replayQuery(t, ins, src, mode, cfg)
	var tr replayTrace
	var lastItems xcql.Sequence
	var at time.Time
	cq := xcql.NewContinuousQuery(q, func(r xcql.Result) {
		tr.deltas = append(tr.deltas, xcql.FormatSequence(r.Delta))
		lastItems = r.Items
	})
	cq.Clock = func() time.Time { return at }
	if incremental {
		cq.WithIncremental(true)
	}
	for _, f := range frags {
		if err := st.Add(f); err != nil {
			t.Fatalf("add filler %d: %v", f.FillerID, err)
		}
		if f.ValidTime.After(at) {
			at = f.ValidTime
		}
		// an evaluation error is a legitimate outcome (e.g. CaQ's fn:view
		// before the root filler arrives in a reordered history); record a
		// marker so both modes must fail at exactly the same arrivals
		if err := cq.EvaluateFragment(f); err != nil {
			tr.deltas = append(tr.deltas, "!error")
		}
	}
	if incremental {
		tr.final = xcql.FormatSequence(cq.ItemsSnapshot())
	} else {
		tr.final = xcql.FormatSequence(lastItems)
	}
	return tr
}

// TestDiffHarnessIncremental replays 200+ generated store/query pairs
// (40 under -short) and pins the core's full and incremental continuous
// evaluation byte-identical to the oracle across the whole strategy
// grid.
func TestDiffHarnessIncremental(t *testing.T) {
	minPairs := 200
	if testing.Short() {
		minPairs = 40
	}
	pairs := 0
	for seed := int64(1); pairs < minPairs; seed++ {
		if seed > 100 {
			t.Fatalf("generator exhausted 100 seeds with only %d pairs", pairs)
		}
		for _, p := range harnessProfiles(seed) {
			pairs += runIncrementalInstance(t, p)
			if pairs >= minPairs {
				break
			}
		}
	}
	t.Logf("verified %d incremental store/query pairs", pairs)
}

// runIncrementalInstance replays one generated history per query: the
// oracle as the reference, the core's full re-evaluation across the
// plan grid, and its incremental mode across plan × parallelism × cache.
func runIncrementalInstance(t *testing.T, p genstore.Profile) int {
	t.Helper()
	ins, err := genstore.Generate(p)
	if err != nil {
		t.Fatalf("%s: generate: %v", p, err)
	}
	for _, query := range ins.Queries {
		baseline := replayOracle(t, ins, ins.Fragments, query.Src, harnessModes[0], execConfigs[0])
		check := func(tr replayTrace, label string) {
			t.Helper()
			if got, want := tr.String(), baseline.String(); got != want {
				t.Fatalf("%s/%s: %s diverged from the oracle\noracle:\n%s\ngot:\n%s",
					p, query.Name, label, harnessTruncate(want), harnessTruncate(got))
			}
		}
		for _, mode := range harnessModes {
			// the core's full re-evaluation, sequential and parallel
			for _, cfg := range []execConfig{execConfigs[0], execConfigs[2]} {
				tr := replayCQ(t, ins, ins.Fragments, query.Src, mode, cfg, false)
				check(tr, fmt.Sprintf("full/%s/%s", mode, cfg.name))
			}
			for _, cfg := range execConfigs {
				tr := replayCQ(t, ins, ins.Fragments, query.Src, mode, cfg, true)
				check(tr, fmt.Sprintf("inc/%s/%s", mode, cfg.name))
			}
		}
	}
	return len(ins.Queries)
}

// TestIncrementalArrivalOrder is the arrival-order metamorphic suite:
// the same fragment set replayed in document order, reverse order, and
// seeded shuffles. Per order, the incremental replay and the oracle's
// full re-evaluation must agree byte for byte (the differential
// property). Across orders, the FINAL
// standing result must be identical — arrival order never leaks into
// the standing state — and nothing may appear in a final result that
// was never emitted as a delta (a lost emission could silently narrow
// what a consumer ever sees).
//
// The raw cumulative delta SET is deliberately not compared across
// orders: transiently emitted items differ legitimately (e.g. a version
// carries vtTo="now" until its successor arrives — in one order the
// successor is already there, in another the "now"-annotated item is
// emitted first and superseded later). DESIGN.md documents this.
func TestIncrementalArrivalOrder(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, p := range []genstore.Profile{
			{Seed: seed},
			{Seed: seed, Duplicates: true, Drops: true},
		} {
			ins, err := genstore.Generate(p)
			if err != nil {
				t.Fatalf("%s: generate: %v", p, err)
			}
			orders := map[string][]*xcql.Fragment{
				"doc":      ins.Fragments,
				"reverse":  ins.ReversedFragments(),
				"shuffle1": ins.ShuffledFragments(seed * 101),
				"shuffle2": ins.ShuffledFragments(seed*101 + 1),
			}
			for _, query := range ins.Queries {
				// finals is keyed mode/order: every leg — either plan,
				// any arrival order — must land on one standing result.
				// Running QaC++ through the same grid is the label
				// stability metamorphic: labels are minted from
				// version-ordered groups, so a reordered history must
				// label (and therefore assemble) identically.
				finals := make(map[string]string)
				for _, mode := range []xcql.Mode{xcql.QaCPlus, xcql.QaCPlusPlus} {
					for name, frags := range orders {
						full := replayOracle(t, ins, frags, query.Src, mode, execConfigs[0])
						inc := replayCQ(t, ins, frags, query.Src, mode, execConfigs[0], true)
						if got, want := inc.String(), full.String(); got != want {
							t.Fatalf("%s/%s/%s order=%s: incremental diverged from full\nfull:\n%s\ninc:\n%s",
								p, query.Name, mode, name, harnessTruncate(want), harnessTruncate(got))
						}
						// no silent appearance: every line of the final result
						// was emitted in some delta of this replay
						emitted := make(map[string]bool)
						for _, d := range inc.deltas {
							for _, line := range strings.Split(d, "\n") {
								emitted[line] = true
							}
						}
						for _, line := range strings.Split(inc.final, "\n") {
							if line != "" && !emitted[line] {
								t.Fatalf("%s/%s/%s order=%s: final item never emitted as delta: %s",
									p, query.Name, mode, name, harnessTruncate(line))
							}
						}
						finals[mode.String()+"/"+name] = inc.final
					}
				}
				want := finals["QaC+/doc"]
				for name, got := range finals {
					if got != want {
						t.Fatalf("%s/%s: final standing result depends on arrival order or plan\nQaC+/doc:\n%s\n%s:\n%s",
							p, query.Name, harnessTruncate(want), name, harnessTruncate(got))
					}
				}
			}
		}
	}
}

// FuzzIncrementalArrival fuzzes the differential property: an arbitrary
// (seed, permutation, profile-flag) triple generates a history, shuffles
// its arrival order, and replays it incrementally against the full
// re-evaluation oracle.
func FuzzIncrementalArrival(f *testing.F) {
	f.Add(int64(1), int64(1), uint8(0))
	f.Add(int64(2), int64(7), uint8(3))
	f.Add(int64(5), int64(42), uint8(5))
	f.Add(int64(9), int64(13), uint8(7))
	f.Fuzz(func(t *testing.T, seed, permSeed int64, flags uint8) {
		p := genstore.Profile{
			Seed:       seed%1000 + 1,
			Reorder:    flags&1 != 0,
			Duplicates: flags&2 != 0,
			Drops:      flags&4 != 0,
			Scan:       flags&8 != 0,
		}
		ins, err := genstore.Generate(p)
		if err != nil {
			t.Skip()
		}
		frags := ins.ShuffledFragments(permSeed)
		// one query per fuzz input keeps executions fast; rotate through
		// the battery so every query form gets coverage
		query := ins.Queries[int(uint64(permSeed)%uint64(len(ins.Queries)))]
		mode := harnessModes[int(uint8(flags>>4))%len(harnessModes)]
		full := replayOracle(t, ins, frags, query.Src, mode, execConfigs[0])
		inc := replayCQ(t, ins, frags, query.Src, mode, execConfigs[0], true)
		if got, want := inc.String(), full.String(); got != want {
			t.Fatalf("%s/%s/%s: incremental diverged from full\nfull:\n%s\ninc:\n%s",
				p, query.Name, mode, harnessTruncate(want), harnessTruncate(got))
		}
	})
}
