package fragment

import (
	"cmp"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"xcql/internal/xmldom"
)

// Label is a Dewey-style prefix label: the slot path from the root
// filler down to a filler, one component per hole level. Lexicographic
// order over labels (shorter prefix first) is exactly preorder document
// order, which is what lets the QaC++ plan assemble results without ever
// walking a hole: the order is already in the label.
type Label []uint32

// Compare orders labels lexicographically with a shorter prefix first —
// preorder document order. It returns -1, 0 or +1.
func (l Label) Compare(o Label) int {
	n := len(l)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		switch {
		case l[i] < o[i]:
			return -1
		case l[i] > o[i]:
			return 1
		}
	}
	switch {
	case len(l) < len(o):
		return -1
	case len(l) > len(o):
		return 1
	}
	return 0
}

// HasPrefix reports whether p labels an ancestor-or-self of l: the
// label-range containment test behind descendant steps.
func (l Label) HasPrefix(p Label) bool {
	if len(p) > len(l) {
		return false
	}
	for i, c := range p {
		if l[i] != c {
			return false
		}
	}
	return true
}

// String renders the label in the usual dotted Dewey notation; the root
// filler's empty label renders as "ε".
func (l Label) String() string {
	if len(l) == 0 {
		return "ε"
	}
	parts := make([]string, len(l))
	for i, c := range l {
		parts[i] = strconv.FormatUint(uint64(c), 10)
	}
	return strings.Join(parts, ".")
}

// LabelIndex is the QaC++ access path: every filler stamped with its
// Dewey prefix label, plus per-filler version groups and the per-tsid
// filler lists, all derived from one snapshot of the fragment log. The
// index is immutable once built and memoized on the store stamped with
// the ingest generation read BEFORE the snapshot, so a racing Add makes
// the memo stale rather than ever serving post-ingest data as
// pre-ingest (the same rule the materialization cache follows).
//
// Labels are assigned by a breadth-first walk from the root filler:
// within one parent, the distinct child hole ids get consecutive slots
// in the order the holes first appear across the parent's versions
// (validTime order, preorder within each payload). Because the walk
// reads the version-ordered groups — not the arrival order — reordered
// or duplicated arrivals produce the same labels as document-order
// ingest. Orphans (fillers never announced by any reachable hole) stay
// unlabeled but remain served by the version and tsid lookups, so
// label-served reads return exactly what the log-backed reads return.
//
// buildLabels is that walk over the whole log. After an Add, Labels
// derives the next index from the memoized one instead (see derive):
// only the appended fragments are applied, and only the table chunks
// they touch are copied, so an index handed out earlier never changes.
type LabelIndex struct {
	st  *Store
	gen uint64

	// the log prefix the index covers: st.log[:logLen] of log epoch epoch
	epoch  uint64
	logLen int

	fillers  fillerTable   // fid -> versions, label, next child slot
	byTSID   map[int][]int // tsid -> distinct fids ascending
	docOrder []int         // labeled fids in label (document) order
	total    int           // distinct fillers stored
	labeled  int           // fillers carrying a label (stored or not)
	derived  bool          // extended from the previous index, not rebuilt
}

// fillerEntry is one filler's row of the index.
type fillerEntry struct {
	versions []*Fragment // validTime order, ties in arrival order
	label    Label
	labeled  bool
	// slots is the number of distinct hole ids across the versions of a
	// labeled, stored filler: the slot its next new child hole takes.
	slots uint32
}

const chunkBits = 6

type fillerChunk [1 << chunkBits]fillerEntry

// fillerTable maps filler ids to entries in fixed-size chunks of
// consecutive ids. A derived index shares every chunk it does not touch
// with the index it came from; a chunk it writes is copied first.
type fillerTable map[int]*fillerChunk

func (t fillerTable) get(fid int) fillerEntry {
	if c := t[fid>>chunkBits]; c != nil {
		return c[fid&(1<<chunkBits-1)]
	}
	return fillerEntry{}
}

// tableWriter writes a fillerTable copy-on-write: a chunk is copied on
// its first write and owned from then on.
type tableWriter struct {
	t     fillerTable
	owned map[int]bool
}

func (w *tableWriter) entry(fid int) *fillerEntry {
	k := fid >> chunkBits
	c := w.t[k]
	if !w.owned[k] {
		fresh := new(fillerChunk)
		if c != nil {
			*fresh = *c
		}
		c = fresh
		w.t[k] = c
		w.owned[k] = true
	}
	return &c[fid&(1<<chunkBits-1)]
}

// Labels returns the store's label index for the current ingest
// generation. An index memoized for an older generation is extended by
// the fragments appended since (derive); when that is not possible the
// index is rebuilt from the whole log. Concurrent callers may race to
// build; every built index is correct for the generation it is stamped
// with, so the race is benign.
func (st *Store) Labels() *LabelIndex {
	gen := st.gen.Load()
	prev := st.labelIdx.Load()
	if prev != nil && prev.gen == gen {
		return prev
	}
	idx := prev.derive(gen)
	if idx == nil {
		idx = st.buildLabels(gen)
	}
	st.labelIdx.Store(idx)
	return idx
}

// buildLabels snapshots the fragment log and assigns labels. gen must be
// the generation read before the snapshot.
func (st *Store) buildLabels(gen uint64) *LabelIndex {
	st.mu.RLock()
	log := make([]*Fragment, len(st.log))
	copy(log, st.log)
	epoch := st.epoch
	st.mu.RUnlock()

	idx := &LabelIndex{
		st:     st,
		gen:    gen,
		epoch:  epoch,
		logLen: len(log),
		byTSID: make(map[int][]int),
	}
	labels := make(map[int]Label)
	versions := make(map[int][]*Fragment)
	slots := make(map[int]uint32)
	tsidSeen := make(map[int]map[int]bool)
	for _, f := range log {
		versions[f.FillerID] = append(versions[f.FillerID], f)
		if tsidSeen[f.TSID] == nil {
			tsidSeen[f.TSID] = make(map[int]bool)
		}
		if !tsidSeen[f.TSID][f.FillerID] {
			tsidSeen[f.TSID][f.FillerID] = true
			idx.byTSID[f.TSID] = append(idx.byTSID[f.TSID], f.FillerID)
		}
	}
	idx.total = len(versions)
	for _, group := range versions {
		sort.SliceStable(group, func(i, j int) bool { return group[i].ValidTime.Before(group[j].ValidTime) })
	}
	for _, fids := range idx.byTSID {
		sort.Ints(fids)
	}

	// BFS from the root: label parents before children so every child
	// label extends an already-final parent label.
	if _, ok := versions[RootFillerID]; ok {
		labels[RootFillerID] = Label{}
		queue := []int{RootFillerID}
		for len(queue) > 0 {
			parent := queue[0]
			queue = queue[1:]
			base := labels[parent]
			slot := uint32(0)
			seen := make(map[int]bool)
			for _, v := range versions[parent] {
				eachHole(v.Payload, func(hid int) {
					if seen[hid] {
						return
					}
					seen[hid] = true
					// the slot is consumed even when another parent already
					// labeled the child: first label wins, slots stay dense
					// per parent
					lbl := childLabel(base, slot)
					slot++
					if _, dup := labels[hid]; !dup {
						labels[hid] = lbl
						if _, stored := versions[hid]; stored {
							queue = append(queue, hid)
						}
					}
				})
			}
			slots[parent] = slot
		}
	}
	idx.labeled = len(labels)
	idx.docOrder = make([]int, 0, len(labels))
	for fid := range labels {
		if _, stored := versions[fid]; stored {
			idx.docOrder = append(idx.docOrder, fid)
		}
	}
	sort.Slice(idx.docOrder, func(i, j int) bool {
		return labels[idx.docOrder[i]].Compare(labels[idx.docOrder[j]]) < 0
	})

	w := tableWriter{t: make(fillerTable), owned: make(map[int]bool)}
	for fid, vs := range versions {
		w.entry(fid).versions = vs
	}
	for fid, lbl := range labels {
		e := w.entry(fid)
		e.label, e.labeled, e.slots = lbl, true, slots[fid]
	}
	idx.fillers = w.t
	return idx
}

// eachHole calls fn with the id of every hole in payload, in preorder,
// without descending into holes; a hole whose id does not parse is
// skipped.
func eachHole(payload *xmldom.Node, fn func(hid int)) {
	if payload == nil {
		return
	}
	payload.Walk(func(n *xmldom.Node) bool {
		if !IsHole(n) {
			return true
		}
		if hid, err := HoleID(n); err == nil {
			fn(hid)
		}
		return false // holes carry no children worth descending into
	})
}

// childLabel is base extended by one slot, in a fresh slice.
func childLabel(base Label, slot uint32) Label {
	lbl := make(Label, len(base)+1)
	copy(lbl, base)
	lbl[len(base)] = slot
	return lbl
}

// derive extends idx by the fragments appended to the store's log since
// idx was built, stamping the result with gen. It returns nil — the
// caller rebuilds — when there is no idx, when the log was rewritten or
// the generation advanced without an Add since (Coalesce,
// AdvanceGeneration), or when some appended fragment leaves the fast
// path (see labelDeriver.apply). The log is append-only within one
// epoch, so the appended fragments are exactly the log past idx.logLen.
func (idx *LabelIndex) derive(gen uint64) *LabelIndex {
	if idx == nil {
		return nil
	}
	st := idx.st
	st.mu.RLock()
	if st.epoch != idx.epoch || len(st.log) < idx.logLen {
		st.mu.RUnlock()
		return nil
	}
	appended := make([]*Fragment, len(st.log)-idx.logLen)
	copy(appended, st.log[idx.logLen:])
	st.mu.RUnlock()

	out := &LabelIndex{
		st:       st,
		gen:      gen,
		epoch:    idx.epoch,
		logLen:   idx.logLen + len(appended),
		byTSID:   idx.byTSID,
		docOrder: idx.docOrder,
		total:    idx.total,
		labeled:  idx.labeled,
		derived:  true,
	}
	d := labelDeriver{
		out:  out,
		w:    tableWriter{t: maps.Clone(idx.fillers), owned: make(map[int]bool)},
		tsid: make(map[int][]int),
	}
	for _, f := range appended {
		if !d.apply(f) {
			return nil
		}
	}
	d.finish()
	return out
}

// labelDeriver applies appended fragments to a derived index one at a
// time, each against the state the previous ones left, which by
// induction equals a from-scratch build of the shorter log.
type labelDeriver struct {
	out  *LabelIndex
	w    tableWriter
	tsid map[int][]int // tsid -> fids new to it (unsorted, may repeat)
	docs []int         // fids that became labeled and stored
}

// apply adds one fragment, or reports false when the result could
// differ from a rebuild by more than what this fragment adds. The
// fragment joins its filler's versions at its validTime position (ties
// after the earlier arrivals). An orphan's versions label nothing, so
// that is all for an unlabeled filler. For a labeled one the rebuild's
// walk would list the distinct hole ids of the versions in order of
// first appearance and give the i-th one slot i; the fast path requires
// that list to be the old one with the new ids at its end:
//
//   - every hole id already labeled is this parent's child, at the slot
//     it already has — no existing label moves;
//   - every new id is labeled nowhere: no labeled filler holds it, so
//     the walk meets it first here, and it takes the parent's next slot.
//
// A version landing last can only add ids after the old ones, so only
// its own holes are walked; one landing earlier re-walks all the
// filler's versions to check the slots of the old ids.
func (d *labelDeriver) apply(f *Fragment) bool {
	fid := f.FillerID
	e := d.w.entry(fid)
	pos := sort.Search(len(e.versions), func(i int) bool { return e.versions[i].ValidTime.After(f.ValidTime) })
	full := pos < len(e.versions)
	e.versions = slices.Insert(slices.Clip(e.versions), pos, f)
	walk := e.versions
	if !full {
		walk = walk[pos:]
	}
	if _, found := slices.BinarySearch(d.out.byTSID[f.TSID], fid); !found {
		d.tsid[f.TSID] = append(d.tsid[f.TSID], fid)
	}
	if len(e.versions) == 1 {
		d.out.total++
		if fid == RootFillerID {
			e.label, e.labeled = Label{}, true
			d.out.labeled++
		}
		if e.labeled {
			d.docs = append(d.docs, fid)
		}
	}
	if !e.labeled {
		return true
	}
	ok := true
	next := uint32(0) // the slot the walk gives the next distinct id
	seen := make(map[int]bool)
	var orphans []int
	for _, v := range walk {
		eachHole(v.Payload, func(hid int) {
			if !ok || seen[hid] {
				return
			}
			seen[hid] = true
			slot := next
			next++
			h := d.w.t.get(hid)
			switch {
			case h.labeled && len(h.label) == len(e.label)+1 && h.label.HasPrefix(e.label):
				// already this parent's child; on a full walk its slot must
				// not have moved
				ok = !full || h.label[len(e.label)] == slot
			case h.labeled:
				ok = false // another parent's child: the rebuild may move it
			default:
				// on a full walk a new id ahead of an old one shows up as
				// that old id's moved slot
				d.mint(hid, childLabel(e.label, e.slots))
				e.slots++
				if len(h.versions) > 0 {
					orphans = append(orphans, hid)
				}
			}
		})
	}
	return ok && d.adopt(orphans)
}

// mint labels an unlabeled filler.
func (d *labelDeriver) mint(fid int, lbl Label) {
	e := d.w.entry(fid)
	e.label, e.labeled = lbl, true
	d.out.labeled++
	if len(e.versions) > 0 {
		d.docs = append(d.docs, fid)
	}
}

// adopt labels the subtrees of former orphans — stored fillers the
// current fragment just labeled — by the rebuild's breadth-first rule,
// seeded in slot order. The rebuild reaches these fillers only through
// the new hole, so it processes them in this order too; the one thing
// that could differ is a hole some filler outside the subtrees already
// labeled, which the rebuild might now reach first from inside, so that
// falls back.
func (d *labelDeriver) adopt(queue []int) bool {
	if len(queue) == 0 {
		return true
	}
	minted := make(map[int]bool, len(queue))
	for _, fid := range queue {
		minted[fid] = true
	}
	for len(queue) > 0 {
		parent := d.w.entry(queue[0])
		queue = queue[1:]
		seen := make(map[int]bool)
		ok := true
		for _, v := range parent.versions {
			eachHole(v.Payload, func(hid int) {
				if !ok || seen[hid] {
					return
				}
				seen[hid] = true
				slot := parent.slots
				parent.slots++
				h := d.w.t.get(hid)
				if h.labeled {
					ok = minted[hid] // first label wins within the new subtrees
					return
				}
				d.mint(hid, childLabel(parent.label, slot))
				minted[hid] = true
				if len(h.versions) > 0 {
					queue = append(queue, hid)
				}
			})
		}
		if !ok {
			return false
		}
	}
	return true
}

// finish merges the new fids into fresh copies of the per-tsid lists
// and the document order; the index derived from keeps its own.
func (d *labelDeriver) finish() {
	out := d.out
	out.fillers = d.w.t
	if len(d.tsid) > 0 {
		byTSID := maps.Clone(out.byTSID)
		for tsid, fids := range d.tsid {
			slices.Sort(fids)
			byTSID[tsid] = insertSorted(byTSID[tsid], slices.Compact(fids), cmp.Compare[int])
		}
		out.byTSID = byTSID
	}
	if len(d.docs) > 0 {
		byLabel := func(a, b int) int { return out.fillers.get(a).label.Compare(out.fillers.get(b).label) }
		slices.SortFunc(d.docs, byLabel)
		out.docOrder = insertSorted(out.docOrder, d.docs, byLabel)
	}
}

// insertSorted returns a new slice holding old and adds, both sorted by
// order and disjoint, in that order.
func insertSorted(old, adds []int, order func(a, b int) int) []int {
	out := make([]int, 0, len(old)+len(adds))
	for _, a := range adds {
		i, _ := slices.BinarySearchFunc(old, a, order)
		out = append(append(out, old[:i]...), a)
		old = old[i:]
	}
	return append(out, old...)
}

// Generation returns the store generation the index was built against.
func (idx *LabelIndex) Generation() uint64 { return idx.gen }

// Size is the number of distinct fillers the index covers (labeled or
// not).
func (idx *LabelIndex) Size() int { return idx.total }

// Labeled is the number of fillers reachable from the root and hence
// carrying a label.
func (idx *LabelIndex) Labeled() int { return idx.labeled }

// LabelOf returns a filler's label; ok is false for orphans and unknown
// ids.
func (idx *LabelIndex) LabelOf(fid int) (Label, bool) {
	e := idx.fillers.get(fid)
	return e.label, e.labeled
}

// DocOrderFIDs lists the labeled (stored) filler ids in label order —
// document order, derived without a single hole walk.
func (idx *LabelIndex) DocOrderFIDs() []int {
	out := make([]int, len(idx.docOrder))
	copy(out, idx.docOrder)
	return out
}

// Fillers serves get_fillers from the index: one annotated element per
// version of fid visible at the evaluation instant. Byte-identical to
// Store.GetFillers, with zero log scans.
func (idx *LabelIndex) Fillers(fid int, at time.Time) []*xmldom.Node {
	return idx.st.annotateVersions(idx.fillers.get(fid).versions, at)
}

// FillersList serves get_fillers_list from the index: the id set
// concatenated in input order, duplicates contributing only at their
// first position — byte-identical to Store.GetFillersList.
func (idx *LabelIndex) FillersList(fids []int, at time.Time) []*xmldom.Node {
	seen := make(map[int]bool, len(fids))
	var out []*xmldom.Node
	for _, fid := range fids {
		if seen[fid] {
			continue
		}
		seen[fid] = true
		out = append(out, idx.st.annotateVersions(idx.fillers.get(fid).versions, at)...)
	}
	return out
}

// FillersByTSID serves the descendant jump from the index: every stored
// filler under tsid, grouped by filler id ascending — byte-identical to
// Store.GetFillersByTSID (orphans included, so reordered histories
// replay identically).
func (idx *LabelIndex) FillersByTSID(tsid int, at time.Time) []*xmldom.Node {
	var out []*xmldom.Node
	for _, fid := range idx.byTSID[tsid] {
		out = append(out, idx.st.annotateVersions(idx.fillers.get(fid).versions, at)...)
	}
	return out
}

// VersionCount returns how many versions of fid the index holds.
func (idx *LabelIndex) VersionCount(fid int) int { return len(idx.fillers.get(fid).versions) }

// TSIDCensus reports the distinct fillers and total stored versions
// under tsid — the label-path cost prediction EXPLAIN uses.
func (idx *LabelIndex) TSIDCensus(tsid int) (fillers, versions int) {
	for _, fid := range idx.byTSID[tsid] {
		versions += len(idx.fillers.get(fid).versions)
	}
	return len(idx.byTSID[tsid]), versions
}
