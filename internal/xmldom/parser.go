package xmldom

import (
	"fmt"
	"io"
	"strings"
)

// Parse reads a complete document from r: optional prolog
// (declaration/comments/DOCTYPE), exactly one document element, optional
// trailing comments. Whitespace-only text between markup outside elements
// is dropped.
func Parse(r io.Reader) (*Node, error) {
	return parseDoc(NewTokenizer(r))
}

// ParseString parses a document from a string.
func ParseString(s string) (*Node, error) { return Parse(strings.NewReader(s)) }

// A StringPool keeps one copy of each distinct name and text of the
// documents parsed through it; attribute values, mostly ids, and text
// holding entity or character references are not shared. Versions of one stored filler repeat most of their text, so
// decoding a log of them through one pool keeps each text once. The
// zero value is ready to use; a nil pool shares nothing. A StringPool is
// not safe for concurrent use.
type StringPool struct{ m map[string]string }

// ParseString parses a document from s, taking its names and text from
// the pool.
func (p *StringPool) ParseString(s string) (*Node, error) {
	z := NewStringTokenizer(s)
	z.pool = p
	return parseDoc(z)
}

func (p *StringPool) intern(b []byte) string {
	if s, ok := p.m[string(b)]; ok {
		return s
	}
	if p.m == nil {
		p.m = make(map[string]string)
	}
	s := string(b)
	p.m[s] = s
	return s
}

// MustParseString parses or panics; for literals in tests.
func MustParseString(s string) *Node {
	n, err := ParseString(s)
	if err != nil {
		panic(err)
	}
	return n
}

func parseDoc(z *Tokenizer) (*Node, error) {
	doc := NewDocument()
	sawRoot := false
	for {
		tok, err := z.Next()
		if err == io.EOF {
			if !sawRoot {
				return nil, fmt.Errorf("xml: no document element")
			}
			return doc, nil
		}
		if err != nil {
			return nil, err
		}
		switch tok.Type {
		case TextTok:
			if strings.TrimSpace(tok.Data) != "" {
				return nil, fmt.Errorf("xml: %d:%d: character data outside document element", tok.Line, tok.Col)
			}
		case CommentTok:
			doc.AppendChild(NewComment(tok.Data))
		case ProcInstTok, DirectiveTok:
			// prolog; recorded as PI, directives skipped
			if tok.Type == ProcInstTok {
				doc.AppendChild(&Node{Type: ProcInstNode, Name: tok.Name, Data: tok.Data})
			}
		case StartElementTok:
			if sawRoot {
				return nil, fmt.Errorf("xml: %d:%d: multiple document elements", tok.Line, tok.Col)
			}
			sawRoot = true
			el, err := parseElement(z, tok)
			if err != nil {
				return nil, err
			}
			doc.AppendChild(el)
		case EndElementTok:
			return nil, fmt.Errorf("xml: %d:%d: unexpected </%s>", tok.Line, tok.Col, tok.Name)
		}
	}
}

// parseElement builds the element whose start tag is start, consuming up
// to and including its end tag.
func parseElement(z *Tokenizer, start Token) (*Node, error) {
	el := NewElement(start.Name)
	el.Attrs = start.Attrs
	if start.SelfClosing {
		return el, nil
	}
	for {
		tok, err := z.Next()
		if err == io.EOF {
			return nil, fmt.Errorf("xml: unexpected EOF inside <%s>", start.Name)
		}
		if err != nil {
			return nil, err
		}
		switch tok.Type {
		case TextTok:
			if tok.Data != "" {
				el.AppendChild(NewText(tok.Data))
			}
		case CommentTok:
			el.AppendChild(NewComment(tok.Data))
		case ProcInstTok:
			el.AppendChild(&Node{Type: ProcInstNode, Name: tok.Name, Data: tok.Data})
		case DirectiveTok:
			// ignore
		case StartElementTok:
			child, err := parseElement(z, tok)
			if err != nil {
				return nil, err
			}
			el.AppendChild(child)
		case EndElementTok:
			if tok.Name != start.Name {
				return nil, fmt.Errorf("xml: %d:%d: </%s> does not match <%s>", tok.Line, tok.Col, tok.Name, start.Name)
			}
			return el, nil
		}
	}
}

// StreamDecoder pulls complete top-level elements one at a time from an
// unbounded input — the shape in which fragments arrive from a server.
// Whitespace, comments and PIs between elements are skipped.
type StreamDecoder struct {
	z *Tokenizer
}

// NewStreamDecoder wraps r.
func NewStreamDecoder(r io.Reader) *StreamDecoder { return &StreamDecoder{z: NewTokenizer(r)} }

// ReadElement returns the next complete element, or io.EOF when the input
// is exhausted at an element boundary.
func (d *StreamDecoder) ReadElement() (*Node, error) {
	for {
		tok, err := d.z.Next()
		if err != nil {
			return nil, err
		}
		switch tok.Type {
		case StartElementTok:
			return parseElement(d.z, tok)
		case TextTok:
			if strings.TrimSpace(tok.Data) != "" {
				return nil, fmt.Errorf("xml: %d:%d: stray character data between stream elements", tok.Line, tok.Col)
			}
		case EndElementTok:
			return nil, fmt.Errorf("xml: %d:%d: stray </%s> between stream elements", tok.Line, tok.Col, tok.Name)
		default:
			// skip comments, PIs, directives
		}
	}
}
