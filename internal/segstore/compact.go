package segstore

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"xcql/internal/xtime"
)

// CompactStats describes one compaction run.
type CompactStats struct {
	// InputSegments consumed and OutputSegments produced (0/0: no-op).
	InputSegments  int
	OutputSegments int
	// Frames rewritten and duplicate frames (same LSN reachable twice —
	// leftovers of an earlier compaction or snapshot crash) dropped.
	Frames          int
	DuplicateFrames int
	// TSIDs partitioned and the total number of coalesced validity
	// windows across them (consecutive versions merged into maximal
	// runs — the temporal-coalescing measure of how contiguous each
	// timestamped item's history is).
	TSIDs   int
	Windows int
}

// Compact rewrites the sealed segments into (tsid, validity window)
// partitions: frames are grouped by tsid, ordered by validity time
// within the group, and chunked into fresh segments so a per-tsid read
// touches few files and window metadata prunes the rest. LSNs travel
// verbatim, so the log's content and replay order are unchanged — only
// its layout moves. The rewrite is crash-safe: outputs appear via tmp +
// atomic rename before any input is removed, and a crash between the
// two leaves duplicates that LSN deduplication hides and the next
// snapshot or compaction clears.
func (s *Store) Compact() (CompactStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return CompactStats{}, fmt.Errorf("segstore: store is closed")
	}
	s.sealActiveLocked()
	if len(s.segs) < 2 {
		return CompactStats{}, nil
	}
	inputs := s.segs
	var st CompactStats
	st.InputSegments = len(inputs)

	// read every input frame, dedup by LSN
	seen := make(map[uint64]bool)
	var recs []frameRec
	for _, si := range inputs {
		data, err := readAll(s.fs, filepath.Join(s.dir, si.name))
		if err != nil {
			return CompactStats{}, fmt.Errorf("segstore: compact read %s: %w", si.name, err)
		}
		if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
			return CompactStats{}, fmt.Errorf("segstore: compact input %s has a bad header", si.name)
		}
		res := parseFile(data[len(segMagic):], int64(len(segMagic)), nil)
		if res.corrupt {
			return CompactStats{}, fmt.Errorf("segstore: compact input %s corrupt at byte %d: %s",
				si.name, res.corruptAt, res.corruptMsg)
		}
		for _, rec := range res.frames {
			if rec.lsn == 0 || rec.frag == nil {
				continue
			}
			if seen[rec.lsn] {
				st.DuplicateFrames++
				continue
			}
			seen[rec.lsn] = true
			recs = append(recs, rec)
		}
	}
	st.Frames = len(recs)
	if len(recs) == 0 {
		return CompactStats{}, nil
	}

	// partition by tsid, order each partition by (validity time, LSN)
	groups := make(map[int][]frameRec)
	var tsids []int
	for _, rec := range recs {
		if _, ok := groups[rec.frag.TSID]; !ok {
			tsids = append(tsids, rec.frag.TSID)
		}
		groups[rec.frag.TSID] = append(groups[rec.frag.TSID], rec)
	}
	sort.Ints(tsids)
	st.TSIDs = len(tsids)
	now := time.Now()
	for _, tsid := range tsids {
		g := groups[tsid]
		sort.SliceStable(g, func(i, j int) bool {
			if !g[i].frag.ValidTime.Equal(g[j].frag.ValidTime) {
				return g[i].frag.ValidTime.Before(g[j].frag.ValidTime)
			}
			return g[i].lsn < g[j].lsn
		})
		// temporal coalescing: each version covers [vt_i, vt_i+1); merging
		// the per-version intervals yields the tsid's maximal history runs
		ivs := make([]xtime.Interval, 0, len(g))
		for i, rec := range g {
			from := xtime.At(rec.frag.ValidTime)
			to := from
			if i+1 < len(g) {
				to = xtime.At(g[i+1].frag.ValidTime)
			}
			ivs = append(ivs, xtime.NewInterval(from, to))
		}
		st.Windows += len(xtime.Coalesce(ivs, now))
	}

	// chunk the partitioned order into output segments
	s.compactGen++
	var outSegs [][]frameRec
	var cur []frameRec
	var curBytes int64 = int64(len(segMagic))
	flush := func() {
		if len(cur) > 0 {
			outSegs = append(outSegs, cur)
			cur, curBytes = nil, int64(len(segMagic))
		}
	}
	for _, tsid := range tsids {
		for _, rec := range groups[tsid] {
			fb := int64(frameHeaderLen + 8 + len(rec.xml))
			if curBytes+fb > s.opts.MaxSegmentBytes && len(cur) > 0 {
				flush()
			}
			cur = append(cur, rec)
			curBytes += fb
		}
		// a partition boundary is also a chunk boundary when the chunk is
		// already more than half full, keeping partitions mostly pure
		if curBytes > s.opts.MaxSegmentBytes/2 {
			flush()
		}
	}
	flush()

	// write every output, then remove the inputs; writeSegmentFile
	// registers outputs in s.segs as it goes
	oldSegs := s.segs
	s.segs = nil
	outNames := make(map[string]bool, len(outSegs))
	for k, frames := range outSegs {
		name := fmt.Sprintf("cseg-%016x-g%d-%d.seg", frames[0].lsn, s.compactGen, k)
		outNames[name] = true
		if err := s.writeSegmentFile(name, frames); err != nil {
			// keep both outputs written so far and all inputs: duplicates
			// are safe, lost frames are not
			s.segs = append(s.segs, oldSegs...)
			return CompactStats{}, fmt.Errorf("segstore: compact write: %w", err)
		}
	}
	st.OutputSegments = len(outSegs)
	for _, si := range oldSegs {
		// never remove an input an output just renamed over: the generation
		// counter makes collisions impossible in normal operation, but a
		// name clash must cost a duplicate, not the frames
		if outNames[si.name] {
			continue
		}
		_ = s.fs.Remove(filepath.Join(s.dir, si.name))
	}
	_ = s.fs.SyncDir(s.dir)
	s.stats.Compactions++
	s.stats.CompactedInputs += int64(st.InputSegments)
	return st, nil
}
