package xmldom

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// TokenType discriminates tokenizer output.
type TokenType uint8

const (
	// StartElementTok is <name attr="v" ...> (SelfClosing when <.../>).
	StartElementTok TokenType = iota
	// EndElementTok is </name>.
	EndElementTok
	// TextTok is character data with entities resolved.
	TextTok
	// CommentTok is <!-- ... -->.
	CommentTok
	// ProcInstTok is <?target data?>.
	ProcInstTok
	// DirectiveTok is <!DOCTYPE ...> or other <!...> directives (skipped
	// by the parser but surfaced for completeness).
	DirectiveTok
)

// Token is one lexical event from the stream.
type Token struct {
	Type        TokenType
	Name        string // element tag / PI target
	Data        string // text, comment, directive or PI payload
	Attrs       []Attr
	SelfClosing bool
	Line, Col   int // position of the token start (1-based)
}

// Tokenizer incrementally lexes XML from an io.Reader. It never reads past
// the end of the construct it is asked for, so multiple documents or
// fragments can be pulled from the same connection back to back.
type Tokenizer struct {
	r         *bufio.Reader
	line, col int
	err       error
	// buf collects the bytes of the name, text or attribute value being
	// read, so its string is allocated once at its exact length: parsed
	// strings live as long as the stored fragments that hold them.
	buf []byte
	// pool, when set, shares names and text across documents.
	pool *StringPool
}

// str returns buf as a string: the pool's copy when there is a pool.
func (z *Tokenizer) str() string {
	if z.pool == nil {
		return string(z.buf)
	}
	return z.pool.intern(z.buf)
}

// NewTokenizer wraps r. The reader is buffered internally.
func NewTokenizer(r io.Reader) *Tokenizer {
	return &Tokenizer{r: bufio.NewReaderSize(r, 32<<10), line: 1, col: 1}
}

// NewStringTokenizer tokenizes from a string.
func NewStringTokenizer(s string) *Tokenizer { return NewTokenizer(strings.NewReader(s)) }

func (z *Tokenizer) readByte() (byte, error) {
	b, err := z.r.ReadByte()
	if err != nil {
		return 0, err
	}
	if b == '\n' {
		z.line++
		z.col = 1
	} else {
		z.col++
	}
	return b, nil
}

func (z *Tokenizer) unreadByte() {
	_ = z.r.UnreadByte()
	z.col-- // column-only rewind; we never unread across a newline
}

func (z *Tokenizer) peekByte() (byte, error) {
	bs, err := z.r.Peek(1)
	if err != nil {
		return 0, err
	}
	return bs[0], nil
}

func (z *Tokenizer) syntaxErr(format string, args ...any) error {
	return fmt.Errorf("xml: %d:%d: %s", z.line, z.col, fmt.Sprintf(format, args...))
}

// Next returns the next token. At end of input it returns io.EOF. A
// syntax error is sticky.
func (z *Tokenizer) Next() (Token, error) {
	if z.err != nil {
		return Token{}, z.err
	}
	tok, err := z.next()
	if err != nil && err != io.EOF {
		z.err = err
	}
	return tok, err
}

func (z *Tokenizer) next() (Token, error) {
	startLine, startCol := z.line, z.col
	b, err := z.readByte()
	if err != nil {
		return Token{}, io.EOF
	}
	if b != '<' {
		// character data up to the next '<'
		z.buf = append(z.buf[:0], b)
		for {
			c, err := z.peekByte()
			if err != nil || c == '<' {
				break
			}
			_, _ = z.readByte()
			z.buf = append(z.buf, c)
		}
		text, derr := decodeEntities(z.str())
		if derr != nil {
			return Token{}, z.syntaxErr("%v", derr)
		}
		return Token{Type: TextTok, Data: text, Line: startLine, Col: startCol}, nil
	}
	c, err := z.readByte()
	if err != nil {
		return Token{}, z.syntaxErr("unexpected EOF after '<'")
	}
	switch {
	case c == '/':
		name, err := z.readName()
		if err != nil {
			return Token{}, err
		}
		z.skipSpace()
		if b, err := z.readByte(); err != nil || b != '>' {
			return Token{}, z.syntaxErr("malformed end tag </%s", name)
		}
		return Token{Type: EndElementTok, Name: name, Line: startLine, Col: startCol}, nil
	case c == '!':
		return z.readBang(startLine, startCol)
	case c == '?':
		return z.readProcInst(startLine, startCol)
	default:
		z.unreadByte()
		return z.readStartElement(startLine, startCol)
	}
}

func (z *Tokenizer) readStartElement(line, col int) (Token, error) {
	name, err := z.readName()
	if err != nil {
		return Token{}, err
	}
	tok := Token{Type: StartElementTok, Name: name, Line: line, Col: col}
	for {
		z.skipSpace()
		b, err := z.readByte()
		if err != nil {
			return Token{}, z.syntaxErr("unexpected EOF in <%s>", name)
		}
		switch b {
		case '>':
			return tok, nil
		case '/':
			if nb, err := z.readByte(); err != nil || nb != '>' {
				return Token{}, z.syntaxErr("expected '>' after '/' in <%s>", name)
			}
			tok.SelfClosing = true
			return tok, nil
		default:
			z.unreadByte()
			attr, err := z.readAttr()
			if err != nil {
				return Token{}, err
			}
			tok.Attrs = append(tok.Attrs, attr)
		}
	}
}

func (z *Tokenizer) readAttr() (Attr, error) {
	name, err := z.readName()
	if err != nil {
		return Attr{}, err
	}
	z.skipSpace()
	b, err := z.readByte()
	if err != nil || b != '=' {
		return Attr{}, z.syntaxErr("attribute %q missing '='", name)
	}
	z.skipSpace()
	quote, err := z.readByte()
	if err != nil || (quote != '"' && quote != '\'') {
		return Attr{}, z.syntaxErr("attribute %q value must be quoted", name)
	}
	z.buf = z.buf[:0]
	for {
		c, err := z.readByte()
		if err != nil {
			return Attr{}, z.syntaxErr("unterminated value for attribute %q", name)
		}
		if c == quote {
			break
		}
		z.buf = append(z.buf, c)
	}
	val, derr := decodeEntities(string(z.buf))
	if derr != nil {
		return Attr{}, z.syntaxErr("attribute %q: %v", name, derr)
	}
	return Attr{Name: name, Value: val}, nil
}

func (z *Tokenizer) readBang(line, col int) (Token, error) {
	// comment, CDATA, or directive
	peek, err := z.r.Peek(2)
	if err == nil && string(peek) == "--" {
		_, _ = z.readByte()
		_, _ = z.readByte()
		var sb strings.Builder
		for {
			c, err := z.readByte()
			if err != nil {
				return Token{}, z.syntaxErr("unterminated comment")
			}
			sb.WriteByte(c)
			s := sb.String()
			if strings.HasSuffix(s, "-->") {
				return Token{Type: CommentTok, Data: s[:len(s)-3], Line: line, Col: col}, nil
			}
		}
	}
	peek7, err := z.r.Peek(7)
	if err == nil && string(peek7) == "[CDATA[" {
		for range 7 {
			_, _ = z.readByte()
		}
		var sb strings.Builder
		for {
			c, err := z.readByte()
			if err != nil {
				return Token{}, z.syntaxErr("unterminated CDATA section")
			}
			sb.WriteByte(c)
			s := sb.String()
			if strings.HasSuffix(s, "]]>") {
				return Token{Type: TextTok, Data: s[:len(s)-3], Line: line, Col: col}, nil
			}
		}
	}
	// directive: read to matching '>', tracking nested <...> (DOCTYPE
	// internal subsets)
	depth := 1
	var sb strings.Builder
	for {
		c, err := z.readByte()
		if err != nil {
			return Token{}, z.syntaxErr("unterminated directive")
		}
		if c == '<' {
			depth++
		}
		if c == '>' {
			depth--
			if depth == 0 {
				return Token{Type: DirectiveTok, Data: sb.String(), Line: line, Col: col}, nil
			}
		}
		sb.WriteByte(c)
	}
}

func (z *Tokenizer) readProcInst(line, col int) (Token, error) {
	name, err := z.readName()
	if err != nil {
		return Token{}, err
	}
	var sb strings.Builder
	for {
		c, err := z.readByte()
		if err != nil {
			return Token{}, z.syntaxErr("unterminated processing instruction")
		}
		sb.WriteByte(c)
		s := sb.String()
		if strings.HasSuffix(s, "?>") {
			return Token{Type: ProcInstTok, Name: name, Data: strings.TrimSpace(s[:len(s)-2]), Line: line, Col: col}, nil
		}
	}
}

func (z *Tokenizer) skipSpace() {
	for {
		b, err := z.peekByte()
		if err != nil || !isSpace(b) {
			return
		}
		_, _ = z.readByte()
	}
}

func (z *Tokenizer) readName() (string, error) {
	z.buf = z.buf[:0]
	for {
		b, err := z.peekByte()
		if err != nil {
			break
		}
		if !isNameByte(b, len(z.buf) == 0) {
			break
		}
		_, _ = z.readByte()
		z.buf = append(z.buf, b)
	}
	if len(z.buf) == 0 {
		return "", z.syntaxErr("expected a name")
	}
	return z.str(), nil
}

func isSpace(b byte) bool { return b == ' ' || b == '\t' || b == '\n' || b == '\r' }

// isNameByte accepts the name characters used by the wire format: letters,
// digits (non-initial), and - _ : . High (multi-byte UTF-8) bytes are
// accepted so non-ASCII tags pass through opaquely.
func isNameByte(b byte, initial bool) bool {
	switch {
	case b >= 'a' && b <= 'z', b >= 'A' && b <= 'Z', b == '_', b == ':':
		return true
	case b >= 0x80:
		return true
	case initial:
		return false
	case b >= '0' && b <= '9', b == '-', b == '.':
		return true
	}
	return false
}

// decodeEntities resolves the predefined entities and numeric character
// references.
func decodeEntities(s string) (string, error) {
	if !strings.ContainsRune(s, '&') {
		return s, nil
	}
	var sb strings.Builder
	sb.Grow(len(s))
	for i := 0; i < len(s); {
		c := s[i]
		if c != '&' {
			sb.WriteByte(c)
			i++
			continue
		}
		semi := strings.IndexByte(s[i:], ';')
		if semi < 0 {
			return "", fmt.Errorf("unterminated entity reference")
		}
		ent := s[i+1 : i+semi]
		switch ent {
		case "amp":
			sb.WriteByte('&')
		case "lt":
			sb.WriteByte('<')
		case "gt":
			sb.WriteByte('>')
		case "apos":
			sb.WriteByte('\'')
		case "quot":
			sb.WriteByte('"')
		default:
			if len(ent) > 1 && ent[0] == '#' {
				numStr, base := ent[1:], 10
				if len(numStr) > 1 && (numStr[0] == 'x' || numStr[0] == 'X') {
					numStr, base = numStr[1:], 16
				}
				n, err := strconv.ParseUint(numStr, base, 32)
				if err != nil || !utf8.ValidRune(rune(n)) {
					return "", fmt.Errorf("bad character reference &%s;", ent)
				}
				sb.WriteRune(rune(n))
			} else {
				return "", fmt.Errorf("unknown entity &%s;", ent)
			}
		}
		i += semi + 1
	}
	return sb.String(), nil
}
