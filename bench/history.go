package main

// history-query: ad-hoc reads over the temporal history of an XMark
// auction stream. Each op compiles one query variant, evaluates it at a
// fixed instant under QaC+ or QaC++ and encodes the result; nothing
// writes, so the label index stays memoized.

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand/v2"
	"time"

	"xcql"
	"xcql/internal/fragment"
	"xcql/internal/obs"
	"xcql/internal/xmldom"
)

// queryClass is one parameterized query shape with its share of ops.
// gen makes variant k of variantsPerClass. Parameters that change the
// cost of a query are stratified over k, so every seed gets the same
// spread of costs; the seed picks the values inside each stratum.
type queryClass struct {
	name   string
	weight int
	gen    func(r *rand.Rand, k int) string
}

// historyClasses are the read classes. The weights (shares of 50) keep
// each reported percentile inside one class's band: descendant takes the
// cheapest 30% of ops and aggregate the next 40%, so p50 sits mid-way
// through the aggregate band; version, the dearest class, takes the top
// 6%, so p99 sits well inside it.
var historyClasses = []queryClass{
	{"descendant", 15, func(r *rand.Rand, k int) string {
		return fmt.Sprintf(`stream("auction")//closed_auction[price >= %d]/price`, 100+16*k+r.IntN(16))
	}},
	{"point", 3, func(r *rand.Rand, _ int) string {
		return fmt.Sprintf(`for $b in stream("auction")/site/people/person[@id = "person%d"] return $b/name`, r.IntN(500))
	}},
	{"aggregate", 20, func(r *rand.Rand, k int) string {
		return fmt.Sprintf(`count(for $i in stream("auction")/site/closed_auctions/closed_auction
		        where $i/price >= %d return $i/price)`, 10+30*k+r.IntN(30))
	}},
	{"range", 5, func(_ *rand.Rand, k int) string {
		// Q2 over each auction's first version, where every plan agrees
		// (see "Known divergence" in README.md)
		return fmt.Sprintf(`for $b in stream("auction")/site/open_auctions/open_auction#[1]
		        return <increase>{ $b/bidder[%d]/increase/text() }</increase>`, 1+k%2)
	}},
	{"interval", 4, func(r *rand.Rand, k int) string {
		from := time.Date(2003, time.Month(1+2*k+r.IntN(2)), 1, 0, 0, 0, 0, time.UTC)
		return fmt.Sprintf(`for $x in stream("auction")/site/open_auctions/open_auction?[%s,%s] return $x/current`,
			from.Format("2006-01-02"), from.AddDate(0, 6, 0).Format("2006-01-02"))
	}},
	{"version", 3, func(_ *rand.Rand, k int) string {
		return fmt.Sprintf(`for $x in stream("auction")/site/people/person#[%d,last] return $x/phone`, 1+k%3)
	}},
}

// variantsPerClass bounds the variant pool, and with it the CaQ
// reference evaluations made before timing.
const variantsPerClass = 6

type variant struct {
	class  string
	src    string
	digest [32]byte // of the CaQ result's encoding
}

var readPlans = []xcql.Mode{xcql.QaCPlus, xcql.QaCPlusPlus}

type historyQuery struct {
	data     *auctionHistory
	tr       *tracer
	engine   *xcql.Engine
	store    *xcql.Store
	variants []variant
	pick     []int // variant indices, one per unit of class weight
	ops      *rand.Rand
	stats    evalCounters

	// the prepared op
	next *variant
	mode xcql.Mode
}

func newHistoryQuery(seed uint64) workload {
	h := &historyQuery{data: genAuctionHistory(seed), ops: newRNG(seed ^ 0x0b5)}
	r := newRNG(seed ^ 0x9a7)
	for _, c := range historyClasses {
		first := len(h.variants)
		for k := range variantsPerClass {
			h.variants = append(h.variants, variant{class: c.name, src: c.gen(r, k)})
		}
		for k := 0; k < c.weight*variantsPerClass; k++ {
			h.pick = append(h.pick, first+k%variantsPerClass)
		}
	}
	return h
}

func (h *historyQuery) setup(tr *tracer) ([]time.Duration, error) {
	h.tr = tr
	var enc bytes.Buffer
	for _, f := range h.data.frags {
		enc.WriteString(f.String())
	}
	n := len(h.data.frags)
	h.data.frags = nil
	times, err := timeSetups(func() error { return h.load(enc.Bytes(), n) },
		func() { h.engine, h.store = nil, nil })
	if err != nil {
		return nil, err
	}
	if err := h.reference(); err != nil {
		return nil, err
	}
	return times, h.warm()
}

// load is the program's set-up: decode the stored fragment stream (as
// xcqlrun -fragments does), build the indexed store and its label index,
// and register it with a new engine. The stream must hold n fragments.
func (h *historyQuery) load(enc []byte, n int) error {
	dec := xmldom.NewStreamDecoder(bytes.NewReader(enc))
	var frags []*fragment.Fragment
	for {
		el, err := dec.ReadElement()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		f, err := fragment.FromXML(el)
		if err != nil {
			return err
		}
		frags = append(frags, f)
	}
	if len(frags) != n {
		return fmt.Errorf("decoded %d fragments, stored %d", len(frags), n)
	}
	st := fragment.NewStore(h.data.structure)
	if err := st.AddAll(frags); err != nil {
		return err
	}
	e := xcql.NewEngine()
	e.RegisterStore("auction", st)
	st.Labels()
	h.engine, h.store = e, st
	return nil
}

// reference computes every variant's expected output under CaQ, the
// plan that materializes the whole view first.
func (h *historyQuery) reference() error {
	for i := range h.variants {
		v := &h.variants[i]
		q, err := h.engine.Compile(v.src, xcql.CaQ)
		if err != nil {
			return fmt.Errorf("compile %s: %w", v.class, err)
		}
		seq, err := q.Eval(historyInstant)
		if err != nil {
			return fmt.Errorf("CaQ %s: %w", v.class, err)
		}
		v.digest = sha256.Sum256([]byte(xcql.FormatSequence(seq)))
	}
	return nil
}

// warm runs every variant under both plans once and checks it.
func (h *historyQuery) warm() error {
	for i := range h.variants {
		for _, mode := range readPlans {
			out, err := h.read(h.variants[i].src, mode)
			if err != nil {
				return err
			}
			if sha256.Sum256([]byte(out)) != h.variants[i].digest {
				return fmt.Errorf("warm-up: %s under %s differs from CaQ", h.variants[i].class, mode)
			}
		}
	}
	return nil
}

// prepare draws the op's query variant and plan.
func (h *historyQuery) prepare(int) {
	h.next = &h.variants[h.pick[h.ops.IntN(len(h.pick))]]
	h.mode = readPlans[h.ops.IntN(len(readPlans))]
}

func (h *historyQuery) op(int) (string, func() bool, error) {
	v, mode := h.next, h.mode
	out, err := h.read(v.src, mode)
	class := v.class + "/" + mode.String()
	if err != nil {
		return class, nil, err
	}
	return class, func() bool { return sha256.Sum256([]byte(out)) == v.digest }, nil
}

// read is one ad-hoc query: compile, evaluate at the fixed instant,
// encode.
func (h *historyQuery) read(src string, mode xcql.Mode) (string, error) {
	return timedRead(h.tr, h.engine, h.store, src, mode, historyInstant, &h.stats)
}

// timedRead compiles, evaluates and encodes one query, with a span
// around each call; QaC++ evaluations first time Store.Labels, which
// rebuilds the label index when a write invalidated it.
func timedRead(tr *tracer, e *xcql.Engine, st *xcql.Store, src string, mode xcql.Mode, at time.Time, c *evalCounters) (string, error) {
	sp := tr.begin("xcql.compile")
	q, err := e.Compile(src, mode)
	tr.end(sp)
	if err != nil {
		return "", err
	}
	if mode == xcql.QaCPlusPlus {
		sp = tr.begin("fragment.labels")
		st.Labels()
		tr.end(sp)
	}
	sp = tr.begin("xcql.eval")
	seq, err := q.Eval(at)
	tr.end(sp)
	if err != nil {
		return "", fmt.Errorf("%s: %w", mode, err)
	}
	sp = tr.begin("xmldom.encode")
	out := xcql.FormatSequence(seq)
	tr.end(sp)
	if tr.on.Load() {
		c.add(q.LastStats(), len(seq))
	}
	return out, nil
}

func (h *historyQuery) tail() float64 { return 99 }

func (h *historyQuery) layerStart() {}

func (h *historyQuery) layerMetrics(m metrics, traced, _ int) { h.stats.layerMetrics(m, traced) }

func (h *historyQuery) finish() error { return nil }

// evalCounters sums the cost counters of traced evaluations.
type evalCounters struct {
	exec, materialize                           time.Duration
	fillers, tsidHits, labelHits, holes         int64
	bytesMaterialized, nodesConstructed, result int64
}

func (c *evalCounters) add(s obs.EvalStats, items int) {
	c.exec += s.ExecTime
	c.materialize += s.MaterializeTime
	c.fillers += s.FillersScanned
	c.tsidHits += s.TSIDIndexHits
	c.labelHits += s.LabelRangeHits
	c.holes += s.HolesResolved
	c.bytesMaterialized += s.BytesMaterialized
	c.nodesConstructed += s.NodesConstructed
	c.result += int64(items)
}

func (c *evalCounters) layerMetrics(m metrics, ops int) {
	n := float64(max(ops, 1))
	m.set("xcql.exec_ms", ms(c.exec)/n, "ms")
	m.set("xcql.materialize_ms", ms(c.materialize)/n, "ms")
	m.set("xcql.fillers_scanned", float64(c.fillers)/n, "count")
	m.set("xcql.tsid_hits", float64(c.tsidHits)/n, "count")
	m.set("xcql.label_hits", float64(c.labelHits)/n, "count")
	m.set("xcql.holes_resolved", float64(c.holes)/n, "count")
	m.set("xcql.bytes_materialized", float64(c.bytesMaterialized)/n, "B")
	m.set("xcql.nodes_constructed", float64(c.nodesConstructed)/n, "count")
	m.set("xcql.result_items", float64(c.result)/n, "count")
}
