package fragment_test

import (
	"testing"

	"xcql/internal/fragment"
	"xcql/internal/genstore"
)

// Over generated histories in every wire profile — in order, reordered,
// with duplicates and with drops — the derived label index must equal a
// from-scratch build after every single Add.
func TestLabelIncrementalGenstore(t *testing.T) {
	fast, fallback := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		for _, p := range []genstore.Profile{
			{Seed: seed},
			{Seed: seed, Reorder: true},
			{Seed: seed, Duplicates: true},
			{Seed: seed, Drops: true},
		} {
			ins, err := genstore.Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			st := fragment.NewStore(ins.Structure)
			for i, f := range ins.Fragments {
				if err := st.Add(f); err != nil {
					t.Fatal(err)
				}
				_, derived, diff := fragment.LabelsAgainstRebuild(st)
				if diff != "" {
					t.Fatalf("%v: after add %d (filler %d): %s", p, i, f.FillerID, diff)
				}
				if derived {
					fast++
				} else {
					fallback++
				}
			}
		}
	}
	t.Logf("%d derived, %d rebuilt", fast, fallback)
	if fast == 0 || fallback == 0 {
		t.Fatalf("derived %d times, rebuilt %d times: both paths must run", fast, fallback)
	}
}
