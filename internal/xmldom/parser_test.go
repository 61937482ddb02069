package xmldom

import (
	"io"
	"strings"
	"testing"
	"unsafe"
)

func TestParseSimpleDocument(t *testing.T) {
	doc, err := ParseString(`<a x="1"><b>hi</b><c/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	root := doc.Root()
	if root.Name != "a" {
		t.Fatalf("root = %q", root.Name)
	}
	if v, ok := root.Attr("x"); !ok || v != "1" {
		t.Fatalf("attr x = %q %v", v, ok)
	}
	if len(root.ElementChildren()) != 2 {
		t.Fatalf("children: %d", len(root.ElementChildren()))
	}
	if root.FirstChildElement("b").Text() != "hi" {
		t.Fatal("b text")
	}
	if root.FirstChildElement("c") == nil {
		t.Fatal("self-closing c missing")
	}
}

func TestParseEntitiesAndCharRefs(t *testing.T) {
	doc, err := ParseString(`<a b="x &amp; y">1 &lt; 2 &gt; 0 &apos;&quot; &#65;&#x42;</a>`)
	if err != nil {
		t.Fatal(err)
	}
	if got := doc.Root().Text(); got != `1 < 2 > 0 '" AB` {
		t.Fatalf("text = %q", got)
	}
	if v, _ := doc.Root().Attr("b"); v != "x & y" {
		t.Fatalf("attr = %q", v)
	}
}

func TestParsePrologAndDoctype(t *testing.T) {
	src := `<?xml version="1.0"?>
<!DOCTYPE creditSystem [<!ELEMENT account (customer)>]>
<!-- header -->
<creditSystem><account/></creditSystem>`
	doc, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Root().Name != "creditSystem" {
		t.Fatalf("root = %q", doc.Root().Name)
	}
}

func TestParseCDATA(t *testing.T) {
	doc, err := ParseString(`<a><![CDATA[x < y & z]]></a>`)
	if err != nil {
		t.Fatal(err)
	}
	if got := doc.Root().Text(); got != "x < y & z" {
		t.Fatalf("text = %q", got)
	}
}

func TestParseComments(t *testing.T) {
	doc, err := ParseString(`<a><!-- note -->v</a>`)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Root().Children[0].Type != CommentNode {
		t.Fatal("comment not preserved")
	}
	if doc.Root().Text() != "v" {
		t.Fatal("comment text leaked into Text()")
	}
}

func TestParseNestedDeep(t *testing.T) {
	var b strings.Builder
	const depth = 500
	for range depth {
		b.WriteString("<d>")
	}
	b.WriteString("leaf")
	for range depth {
		b.WriteString("</d>")
	}
	doc, err := ParseString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	if doc.Root().Text() != "leaf" {
		t.Fatal("deep text lost")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,                       // no document element
		`<a>`,                    // unterminated
		`<a></b>`,                // mismatched tags
		`<a></a><b></b>`,         // two roots
		`text only`,              // data outside root
		`<a attr></a>`,           // attr missing value
		`<a b=c></a>`,            // unquoted value
		`<a>&unknown;</a>`,       // unknown entity
		`<a>&#xZZ;</a>`,          // bad char ref
		`<a><!-- unterminated`,   // comment EOF
		`</a>`,                   // stray end tag
		`<a b="1" b2='unclosed>`, // unterminated attr value
	}
	for _, src := range cases {
		if _, err := ParseString(src); err == nil {
			t.Errorf("ParseString(%q) unexpectedly succeeded", src)
		}
	}
}

func TestErrorsCarryPosition(t *testing.T) {
	_, err := ParseString("<a>\n  <b></c>\n</a>")
	if err == nil || !strings.Contains(err.Error(), "2:") {
		t.Fatalf("error should carry line 2, got: %v", err)
	}
}

func TestStreamDecoderMultipleElements(t *testing.T) {
	src := `<f id="1"/> <f id="2"><x>a</x></f>
	<!-- noise --> <f id="3"/>`
	d := NewStreamDecoder(strings.NewReader(src))
	var ids []string
	for {
		el, err := d.ReadElement()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		id, _ := el.Attr("id")
		ids = append(ids, id)
	}
	if strings.Join(ids, ",") != "1,2,3" {
		t.Fatalf("ids = %v", ids)
	}
}

func TestStreamDecoderStrayData(t *testing.T) {
	d := NewStreamDecoder(strings.NewReader(`<a/> junk <b/>`))
	if _, err := d.ReadElement(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadElement(); err == nil {
		t.Fatal("stray data should error")
	}
}

func TestRoundTrip(t *testing.T) {
	srcs := []string{
		`<a x="1" y="&lt;&amp;&quot;"><b>text &amp; more</b><c/><d>1<e/>2</d></a>`,
		`<filler id="100" tsid="5" validTime="2003-10-23T12:23:34"><transaction id="12345"><vendor> Southlake Pizza </vendor><amount> 38.20 </amount><hole id="200" tsid="7"/></transaction></filler>`,
	}
	for _, src := range srcs {
		doc, err := ParseString(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		out := doc.Root().String()
		doc2, err := ParseString(out)
		if err != nil {
			t.Fatalf("reparse %q: %v", out, err)
		}
		if !doc.Root().Equal(doc2.Root()) {
			t.Fatalf("round trip changed tree:\n in: %s\nout: %s", src, out)
		}
	}
}

func TestIndentSerialization(t *testing.T) {
	doc := MustParseString(`<a><b><c>x</c></b></a>`)
	out := doc.Root().IndentString()
	if !strings.Contains(out, "\n  <b>") {
		t.Fatalf("no indentation:\n%s", out)
	}
	// mixed content must stay inline
	mixed := MustParseString(`<p>hello <b>world</b>!</p>`)
	if got := mixed.Root().IndentString(); !strings.Contains(got, "hello <b>world</b>!") {
		t.Fatalf("mixed content distorted: %q", got)
	}
}

// Documents parsed through one StringPool parse exactly as without it,
// and a text or name they repeat is one string, not a copy per document.
func TestStringPoolSharesText(t *testing.T) {
	const v1 = `<auction id="a1"><note>long repeated annotation</note><price>1</price></auction>`
	const v2 = `<auction id="a1"><note>long repeated annotation</note><price>2</price></auction>`
	var pool StringPool
	var docs []*Node
	for _, src := range []string{v1, v2} {
		got, err := pool.ParseString(src)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ParseString(src)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("pooled parse %s, want %s", got, want)
		}
		docs = append(docs, got.Root())
	}
	note := func(n *Node) *Node { return n.FirstChildElement("note") }
	if a, b := note(docs[0]).Children[0].Data, note(docs[1]).Children[0].Data; unsafe.StringData(a) != unsafe.StringData(b) {
		t.Error("repeated text parsed into two strings")
	}
	if unsafe.StringData(docs[0].Name) != unsafe.StringData(docs[1].Name) {
		t.Error("repeated name parsed into two strings")
	}
	var none *StringPool
	if doc, err := none.ParseString(v1); err != nil || doc.Root().String() != docs[0].String() {
		t.Fatalf("nil pool: %v, %v", doc, err)
	}
}
