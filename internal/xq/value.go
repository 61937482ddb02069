// Package xq is a from-scratch XQuery-subset engine — the substrate the
// paper assumed by using the Qizx processor. It covers everything the
// paper's queries need: FLWOR expressions (for/at/let/where/order by/
// return), quantified expressions, conditionals, path expressions with
// child/descendant/attribute steps and predicates, direct and computed
// element/attribute constructors, arithmetic with dateTime/duration
// support, general comparisons with existential semantics, Allen interval
// comparisons, aggregates, and a user-extensible function registry.
//
// The XCQL temporal syntax (?[..], #[..], stream()) parses into the same
// AST; package xcql compiles those nodes away into engine primitives per
// the paper's Figure 3.
package xq

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"xcql/internal/xmldom"
	"xcql/internal/xtime"
)

// Item is one value in the XQuery data model. Dynamic type is one of:
//
//	*xmldom.Node   — element/text/document node
//	AttrItem       — an attribute (name + string value)
//	string, float64, bool
//	xtime.DateTime, xtime.Duration
type Item any

// AttrItem is an attribute produced by an @name step or an attribute
// constructor.
type AttrItem struct {
	Name  string
	Value string
}

// Sequence is the universal result type: every expression evaluates to a
// flat, ordered sequence of items (possibly empty).
type Sequence []Item

// Singleton wraps one item.
func Singleton(it Item) Sequence { return Sequence{it} }

// IsNode reports whether the item is a tree node (element/text/document).
func IsNode(it Item) bool {
	_, ok := it.(*xmldom.Node)
	return ok
}

// ItemKey is the identity of one result item: nodes serialize as XML,
// atomics as their string value. Standing queries diff consecutive
// results by it, and result formatting renders items with it, so the
// two can never disagree.
func ItemKey(it Item) string {
	if n, ok := it.(*xmldom.Node); ok {
		return n.String()
	}
	return StringValue(it)
}

// StringValue returns the string value of an item: text content of nodes,
// lexical form of atomics.
func StringValue(it Item) string {
	switch v := it.(type) {
	case *xmldom.Node:
		return v.Text()
	case AttrItem:
		return v.Value
	case string:
		return v
	case float64:
		return FormatNumber(v)
	case bool:
		if v {
			return "true"
		}
		return "false"
	case xtime.DateTime:
		return v.String()
	case xtime.Duration:
		return v.String()
	case nil:
		return ""
	default:
		return fmt.Sprintf("%v", v)
	}
}

// FormatNumber renders a float the XPath way: integers without a decimal
// point, NaN as "NaN".
func FormatNumber(f float64) string {
	if math.IsNaN(f) {
		return "NaN"
	}
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// NumberValue converts an item to a number; unconvertible values yield
// NaN, as in XPath.
func NumberValue(it Item) float64 {
	switch v := it.(type) {
	case float64:
		return v
	case bool:
		if v {
			return 1
		}
		return 0
	case string:
		return parseNum(v)
	case *xmldom.Node:
		return parseNum(v.Text())
	case AttrItem:
		return parseNum(v.Value)
	default:
		return math.NaN()
	}
}

func parseNum(s string) float64 {
	f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return math.NaN()
	}
	return f
}

// DateTimeValue attempts to interpret an item as a dateTime: native
// values pass through; node/string content is parsed. ok is false when the
// lexical form is not a dateTime.
func DateTimeValue(it Item) (xtime.DateTime, bool) {
	switch v := it.(type) {
	case xtime.DateTime:
		return v, true
	case string:
		d, err := xtime.Parse(v)
		return d, err == nil
	case *xmldom.Node:
		d, err := xtime.Parse(strings.TrimSpace(v.Text()))
		return d, err == nil
	case AttrItem:
		d, err := xtime.Parse(strings.TrimSpace(v.Value))
		return d, err == nil
	default:
		return xtime.DateTime{}, false
	}
}

// EffectiveBool computes the effective boolean value of a sequence: empty
// is false; a sequence whose first item is a node is true; a singleton
// atomic follows its type's rule; other sequences are errors in XQuery but
// we take truth of the first item for robustness.
func EffectiveBool(seq Sequence) bool {
	if len(seq) == 0 {
		return false
	}
	switch v := seq[0].(type) {
	case *xmldom.Node, AttrItem:
		return true
	case bool:
		return v
	case float64:
		return v != 0 && !math.IsNaN(v)
	case string:
		return v != ""
	default:
		return true
	}
}

// Atomize converts nodes to their typed values (string content) and
// passes atomics through.
func Atomize(seq Sequence) Sequence {
	out := make(Sequence, 0, len(seq))
	for _, it := range seq {
		switch v := it.(type) {
		case *xmldom.Node:
			out = append(out, v.Text())
		case AttrItem:
			out = append(out, v.Value)
		default:
			out = append(out, it)
		}
	}
	return out
}

// Strings maps StringValue over the sequence.
func Strings(seq Sequence) []string {
	out := make([]string, len(seq))
	for i, it := range seq {
		out[i] = StringValue(it)
	}
	return out
}

// Nodes filters the sequence to its tree nodes.
func Nodes(seq Sequence) []*xmldom.Node {
	var out []*xmldom.Node
	for _, it := range seq {
		if n, ok := it.(*xmldom.Node); ok {
			out = append(out, n)
		}
	}
	return out
}

// FromNodes builds a sequence from nodes.
func FromNodes(nodes []*xmldom.Node) Sequence {
	out := make(Sequence, len(nodes))
	for i, n := range nodes {
		out[i] = n
	}
	return out
}

// isNaNItem reports whether the item is the typed number NaN, which
// compares false against everything, itself included.
func isNaNItem(it Item) bool {
	f, ok := it.(float64)
	return ok && math.IsNaN(f)
}

// compareAtomic orders two atomics for value comparison. It prefers, in
// order: numeric comparison (both parse as numbers), dateTime comparison,
// then lexicographic string comparison. `at` resolves symbolic dateTimes.
func compareAtomic(a, b Item, at time.Time) int {
	na, nb := NumberValue(a), NumberValue(b)
	if !math.IsNaN(na) && !math.IsNaN(nb) {
		switch {
		case na < nb:
			return -1
		case na > nb:
			return 1
		default:
			return 0
		}
	}
	if da, ok := DateTimeValue(a); ok {
		if db, ok := DateTimeValue(b); ok {
			return da.Compare(db, at)
		}
	}
	return strings.Compare(StringValue(a), StringValue(b))
}
