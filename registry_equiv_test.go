package xcql_test

import (
	"fmt"
	"testing"
	"time"

	"xcql"
	"xcql/internal/fragment"
	"xcql/internal/genstore"
)

// The registry-equivalence cell of the differential harness: every
// generated store/query pair is replayed fragment by fragment through
// the multi-tenant registry with N=2..32 overlapping standing
// registrations sharing ONE store and one evaluation pass per arrival —
// and each registration's per-arrival delta trace and final standing
// result must be byte-identical to the test-local oracle (replayOracle:
// plain re-evaluation plus a set difference) replaying the same history
// on its own private store. Sharing (full-mode plan dedup, incremental
// unit memoization across queries) is an execution strategy, not a
// semantics change; this suite pins that.

// regSpec is one standing registration in a registry replay.
type regSpec struct {
	src  string
	mode xcql.Mode
	inc  bool
}

func (s regSpec) String() string {
	kind := "full"
	if s.inc {
		kind = "inc"
	}
	return fmt.Sprintf("%s/%s", s.mode, kind)
}

// replayRegistry feeds frags one at a time into a single shared store
// and registry carrying every spec as a live registration, with the
// clock pinned to the running maximum validTime (the same pinning
// replayOracle applies). It returns one trace per spec, in spec order.
func replayRegistry(t *testing.T, ins *genstore.Instance, frags []*xcql.Fragment,
	specs []regSpec, cfg execConfig) []replayTrace {
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
	var at time.Time
	r := e.Registry()
	r.SetClock(func() time.Time { return at })

	traces := make([]replayTrace, len(specs))
	lastItems := make([]xcql.Sequence, len(specs))
	regs := make([]*xcql.QueryRegistration, len(specs))
	for i, spec := range specs {
		q, err := e.Compile(spec.src, spec.mode)
		if err != nil {
			t.Fatalf("compile %q under %s: %v", spec.src, spec.mode, err)
		}
		if cfg.perQuery {
			q = q.WithParallelism(cfg.parallelism).WithCache(cfg.cacheSize)
		}
		i := i
		reg, err := r.Register(q, xcql.RegistryOptions{
			Incremental: spec.inc,
			OnResult: func(res xcql.RegistryResult) {
				if res.Err != nil {
					// same marker replayOracle records when an evaluation
					// fails: both sides must fail at exactly the same
					// arrivals
					traces[i].deltas = append(traces[i].deltas, "!error")
					return
				}
				traces[i].deltas = append(traces[i].deltas, xcql.FormatSequence(res.Delta))
				lastItems[i] = res.Items
			},
		})
		if err != nil {
			t.Fatalf("register %s: %v", spec, err)
		}
		regs[i] = reg
	}
	for _, f := range frags {
		if err := st.Add(f); err != nil {
			t.Fatalf("add filler %d: %v", f.FillerID, err)
		}
		if f.ValidTime.After(at) {
			at = f.ValidTime
		}
		r.Apply(f)
	}
	for i, spec := range specs {
		if spec.inc {
			traces[i].final = xcql.FormatSequence(regs[i].ItemsSnapshot())
		} else {
			traces[i].final = xcql.FormatSequence(lastItems[i])
		}
		regs[i].Close()
	}
	return traces
}

// registrySpecs builds the overlapping registration set for one
// instance: every generated query enters once per {full, incremental}
// under a rotating plan, then the set is padded with duplicate
// registrations (cycling queries, plans and modes) up to n — the
// duplicates are what force full-plan sharing and cross-query unit
// sharing inside one group.
func registrySpecs(ins *genstore.Instance, n int) []regSpec {
	var specs []regSpec
	for j, q := range ins.Queries {
		mode := harnessModes[j%len(harnessModes)]
		specs = append(specs, regSpec{src: q.Src, mode: mode, inc: false})
		specs = append(specs, regSpec{src: q.Src, mode: mode, inc: true})
	}
	for j := 0; len(specs) < n; j++ {
		q := ins.Queries[j%len(ins.Queries)]
		specs = append(specs, regSpec{
			src:  q.Src,
			mode: harnessModes[(j/2)%len(harnessModes)],
			inc:  j%2 == 1,
		})
	}
	if len(specs) > n {
		specs = specs[:n]
	}
	return specs
}

// TestRegistryEquivalence replays 200+ generated store/query pairs (40
// under -short) through the registry and pins every registration's
// delta stream and final standing result byte-identical to the oracle
// across {CaQ,QaC,QaC+} × {full,incremental} × {seq,par4}.
func TestRegistryEquivalence(t *testing.T) {
	minPairs := 200
	if testing.Short() {
		minPairs = 40
	}
	// registration-count schedule: cycles the required N=2..32 band
	nSchedule := []int{2, 6, 12, 32, 8, 16, 4, 24}
	cfgs := []execConfig{execConfigs[0], execConfigs[2]} // seq, par4
	pairs, inst := 0, 0
	for seed := int64(1); pairs < minPairs; seed++ {
		if seed > 100 {
			t.Fatalf("generator exhausted 100 seeds with only %d pairs", pairs)
		}
		for _, p := range harnessProfiles(seed) {
			ins, err := genstore.Generate(p)
			if err != nil {
				t.Fatalf("%s: generate: %v", p, err)
			}
			n := nSchedule[inst%len(nSchedule)]
			cfg := cfgs[inst%len(cfgs)]
			inst++
			specs := registrySpecs(ins, n)
			traces := replayRegistry(t, ins, ins.Fragments, specs, cfg)
			// oracle replays are cached per distinct (query, plan): full
			// and incremental registrations, duplicates included, must
			// all match the same reference
			refs := make(map[regSpec]replayTrace)
			verified := make(map[string]bool)
			for i, spec := range specs {
				key := regSpec{src: spec.src, mode: spec.mode}
				ref, ok := refs[key]
				if !ok {
					ref = replayOracle(t, ins, ins.Fragments, spec.src, spec.mode, cfg)
					refs[key] = ref
				}
				if got, want := traces[i].String(), ref.String(); got != want {
					t.Fatalf("%s reg[%d] %s under %s diverged from the oracle\noracle:\n%s\nregistry:\n%s",
						p, i, spec, cfg.name, harnessTruncate(want), harnessTruncate(got))
				}
				verified[spec.src] = true
			}
			// a pair counts only when the instance's replay actually
			// verified that query (small N truncates the spec list)
			pairs += len(verified)
			if pairs >= minPairs {
				break
			}
		}
	}
	t.Logf("verified %d registry store/query pairs (%d registry replays)", pairs, inst)
}
