package fragment

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"xcql/internal/xmldom"
)

// diffLabelIndex compares two label indexes field for field — per-filler
// versions (by identity), labels and next-slot counts, the per-tsid
// lists, document order, and the counters — and describes the first
// differences, or returns "" when they are equal.
func diffLabelIndex(got, want *LabelIndex) string {
	var diffs []string
	note := func(format string, args ...any) {
		if len(diffs) < 10 {
			diffs = append(diffs, fmt.Sprintf(format, args...))
		}
	}
	if got.gen != want.gen || got.epoch != want.epoch || got.logLen != want.logLen {
		note("stamp gen/epoch/logLen %d/%d/%d, want %d/%d/%d",
			got.gen, got.epoch, got.logLen, want.gen, want.epoch, want.logLen)
	}
	if got.total != want.total || got.labeled != want.labeled {
		note("total/labeled %d/%d, want %d/%d", got.total, got.labeled, want.total, want.labeled)
	}
	fids := tableFIDs(got.fillers)
	for _, fid := range tableFIDs(want.fillers) {
		if !slices.Contains(fids, fid) {
			fids = append(fids, fid)
		}
	}
	slices.Sort(fids)
	for _, fid := range fids {
		g, w := got.fillers.get(fid), want.fillers.get(fid)
		if g.labeled != w.labeled || g.label.Compare(w.label) != 0 {
			note("filler %d label %s (%v), want %s (%v)", fid, g.label, g.labeled, w.label, w.labeled)
		}
		if g.slots != w.slots {
			note("filler %d next slot %d, want %d", fid, g.slots, w.slots)
		}
		if !slices.Equal(g.versions, w.versions) {
			note("filler %d versions %d differ from %d", fid, len(g.versions), len(w.versions))
		}
	}
	if len(got.byTSID) != len(want.byTSID) {
		note("%d tsids, want %d", len(got.byTSID), len(want.byTSID))
	}
	for tsid, w := range want.byTSID {
		if g := got.byTSID[tsid]; !slices.Equal(g, w) {
			note("tsid %d fillers %v, want %v", tsid, g, w)
		}
	}
	if !slices.Equal(got.docOrder, want.docOrder) {
		note("doc order %v, want %v", got.docOrder, want.docOrder)
	}
	return strings.Join(diffs, "; ")
}

// tableFIDs lists the ids of the table's non-empty entries.
func tableFIDs(t fillerTable) []int {
	var out []int
	for k, c := range t {
		for i, e := range c {
			if e.versions != nil || e.labeled || e.slots != 0 {
				out = append(out, k<<chunkBits+i)
			}
		}
	}
	return out
}

// addCheckingLabels ingests frags one at a time and, after every Add,
// requires the store's label index to equal a from-scratch build. It
// returns how often the index was derived and how often rebuilt.
func addCheckingLabels(t *testing.T, st *Store, frags []*Fragment) (fast, fallback int) {
	t.Helper()
	for i, f := range frags {
		if err := st.Add(f); err != nil {
			t.Fatal(err)
		}
		_, derived, diff := LabelsAgainstRebuild(st)
		if diff != "" {
			t.Fatalf("after add %d (filler %d): %s", i, f.FillerID, diff)
		}
		if derived {
			fast++
		} else {
			fallback++
		}
	}
	return fast, fallback
}

// The derived index must equal a rebuild after every single Add for
// every arrival order of the fixture.
func TestLabelIncrementalFixture(t *testing.T) {
	base := labelFixture(t)
	orders := map[string][]*Fragment{
		"in-order":   base,
		"duplicated": append(append([]*Fragment(nil), base...), base[1], base[4], base[0]),
	}
	rev := slices.Clone(base)
	slices.Reverse(rev)
	orders["reverse"] = rev
	for seed := int64(1); seed <= 3; seed++ {
		sh := slices.Clone(base)
		rand.New(rand.NewSource(seed)).Shuffle(len(sh), func(i, j int) { sh[i], sh[j] = sh[j], sh[i] })
		orders[fmt.Sprintf("shuffle%d", seed)] = sh
	}
	for name, frags := range orders {
		st := NewStore(creditStruct(t))
		st.Labels() // the empty store's index is the first base
		if fast, fallback := addCheckingLabels(t, st, frags); fast == 0 {
			t.Fatalf("%s: never derived (%d rebuilds)", name, fallback)
		}
	}
}

// creditBids returns n bid-shaped arrivals over the fixture's accounts,
// as a live stream delivers them: a transaction filler (sometimes with
// its status filler ahead of it) arrives as an orphan, then a new
// version of an account announces it with one more hole after the
// earlier ones. latest holds each account's current version and is
// updated.
func creditBids(latest map[int]*Fragment, n int, nextID int, from time.Time) []*Fragment {
	var out []*Fragment
	accounts := []int{10, 20}
	for i := 0; i < n; i++ {
		at := from.Add(time.Duration(i+1) * time.Minute)
		tx, status := nextID, nextID+1
		nextID += 2
		payload := xmldom.MustParseString(fmt.Sprintf(
			`<transaction><vendor>V%d</vendor><amount>%d.00</amount><hole id="%d" tsid="7"/></transaction>`, i, i, status)).Root()
		if i%3 == 0 {
			out = append(out, New(status, 7, at, xmldom.MustParseString(`<status>pending</status>`).Root()))
		}
		out = append(out, New(tx, 5, at, payload))
		acct := latest[accounts[i%len(accounts)]]
		next := acct.Payload.Clone()
		next.AppendChild(NewHole(tx, 5))
		latest[acct.FillerID] = New(acct.FillerID, acct.TSID, at, next)
		out = append(out, latest[acct.FillerID])
	}
	return out
}

// The benchmark's write shape — an orphan that the next version of its
// parent adopts — must stay on the fast path, and every fallback case
// must still agree with a rebuild.
func TestLabelIncrementalBidShape(t *testing.T) {
	base := labelFixture(t)
	st := labelStore(t, base)
	st.Labels()
	latest := map[int]*Fragment{10: base[7], 20: base[2]}
	fast, fallback := addCheckingLabels(t, st, creditBids(latest, 30, 1000, ts("2003-06-01T00:00:00")))
	if fallback != 0 {
		t.Fatalf("bid arrivals rebuilt the index %d times (derived %d)", fallback, fast)
	}

	// versions landing before later ones stay on the fast path while no
	// existing slot moves
	early := func(fid, tsid int, at, payload string) *Fragment {
		return New(fid, tsid, ts(at), xmldom.MustParseString(payload).Root())
	}
	for _, f := range []*Fragment{
		early(11, 4, "2003-01-10T00:00:00", `<creditLimit>1</creditLimit>`),
		early(10, 2, "2003-01-11T00:00:00",
			`<account id="a1"><customer>J</customer><hole id="11" tsid="4"/><hole id="12" tsid="5"/></account>`),
	} {
		if _, b := addCheckingLabels(t, st, []*Fragment{f}); b != 0 {
			t.Fatalf("filler %d at %v left the fast path", f.FillerID, f.ValidTime)
		}
	}
	// these leave it and must still match a rebuild: an early version
	// that puts a later version's hole ahead of an older one, or a new
	// hole ahead of the later versions' holes, moves their slots; a hole
	// already labeled under another parent may move; and so may one held
	// by an adopted orphan that the rebuild reaches first (account 3000,
	// announced by the root, sits above transaction 12, the holder of
	// status 13)
	stolen := latest[20].Payload.Clone()
	stolen.AppendChild(NewHole(11, 4))
	root := base[0].Payload.Clone()
	root.AppendChild(NewHole(3000, 2))
	if err := st.Add(early(3000, 2, "2004-01-02T00:00:00",
		`<account id="a9"><customer>Z</customer><hole id="13" tsid="7"/></account>`)); err != nil {
		t.Fatal(err)
	}
	for _, f := range []*Fragment{
		early(20, 2, "2003-01-02T12:00:00",
			`<account id="a2"><customer>M</customer><hole id="1002" tsid="5"/><hole id="21" tsid="4"/></account>`),
		early(10, 2, "2003-01-12T00:00:00",
			`<account id="a1"><customer>J</customer><hole id="11" tsid="4"/><hole id="12" tsid="5"/><hole id="5000" tsid="5"/></account>`),
		New(20, 2, ts("2004-01-01T00:00:00"), stolen),
		New(RootFillerID, 1, ts("2004-01-03T00:00:00"), root),
	} {
		if _, b := addCheckingLabels(t, st, []*Fragment{f}); b != 1 {
			t.Fatalf("filler %d at %v stayed on the fast path", f.FillerID, f.ValidTime)
		}
	}
	st.AdvanceGeneration()
	if _, derived, diff := LabelsAgainstRebuild(st); derived || diff != "" {
		t.Fatalf("after AdvanceGeneration: derived=%v diff=%s", derived, diff)
	}
	if err := st.Add(base[3]); err != nil { // a duplicate for Coalesce
		t.Fatal(err)
	}
	st.Labels()
	if st.Coalesce() == 0 {
		t.Fatal("nothing coalesced")
	}
	// the rewritten log outgrows the memo's prefix before the next read
	if err := st.AddAll(creditBids(latest, 2, 2000, ts("2004-02-01T00:00:00"))); err != nil {
		t.Fatal(err)
	}
	if _, derived, diff := LabelsAgainstRebuild(st); derived || diff != "" {
		t.Fatalf("after Coalesce: derived=%v diff=%s", derived, diff)
	}
}

// labelView renders everything a reader can ask an index about.
func labelView(idx *LabelIndex, fids []int) string {
	var b strings.Builder
	fmt.Fprintln(&b, idx.DocOrderFIDs())
	for _, fid := range fids {
		lbl, ok := idx.LabelOf(fid)
		fmt.Fprintf(&b, "%d %s %v %s", fid, lbl, ok, renderNodes(idx.Fillers(fid, labelAt)))
	}
	for tsid := 1; tsid <= 8; tsid++ {
		f, v := idx.TSIDCensus(tsid)
		fmt.Fprintf(&b, "tsid %d: %d/%d\n", tsid, f, v)
	}
	return b.String()
}

// An index handed out earlier never changes: readers holding it while a
// writer appends (and other readers derive newer indexes from it
// concurrently) see exactly what they saw before.
func TestLabelIncrementalSnapshotRace(t *testing.T) {
	base := labelFixture(t)
	st := labelStore(t, base)
	latest := map[int]*Fragment{10: base[7], 20: base[2]}
	bids := creditBids(latest, 60, 1000, ts("2003-06-01T00:00:00"))
	fids := []int{0, 10, 11, 12, 13, 20, 21, 99, 1000, 1001, 1060, 1061}

	snap := st.Labels()
	before := labelView(snap, fids)
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for _, f := range bids {
			if err := st.Add(f); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				idx := st.Labels()
				_ = labelView(idx, fids)
				if got := labelView(snap, fids); got != before {
					t.Errorf("snapshot changed under concurrent writes:\n%s\nwas:\n%s", got, before)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := labelView(snap, fids); got != before {
		t.Fatalf("snapshot changed:\n%s\nwas:\n%s", got, before)
	}
	if _, _, diff := LabelsAgainstRebuild(st); diff != "" {
		t.Fatalf("final index: %s", diff)
	}
}
