package netlist

import (
	"bytes"
	"io"
)

// maxLine bounds a line, counting its newline: longer lines are a
// ParseError at that line.
const maxLine = 1 << 20

// Byte classes of the tokenizer (0 is a plain token byte). Below 0x80
// the spaces are exactly the ASCII bytes unicode.IsSpace accepts; any
// byte from 0x80 up sends its line to bytes.Fields, so tokens split as
// strings.Fields splits them. A newline or a '#' ends the line's
// tokens.
const (
	cSpace uint8 = 1 << iota
	cQuote
	cWide
	cEnd
)

var byteClass = func() (t [256]uint8) {
	for _, c := range "\t\v\f\r " {
		t[c] = cSpace
	}
	t['\n'], t['#'] = cEnd, cEnd
	t['"'], t['\''] = cQuote, cQuote
	for c := 0x80; c < 0x100; c++ {
		t[c] = cWide
	}
	return t
}()

// lexer splits line-oriented input into whitespace-separated fields in
// one pass over the input bytes. '#' starts a comment and quoting is
// rejected. A line's fields are spans of the input, in a slice reused
// from line to line; the spans hold no pointers, so splitting a line
// stores none.
type lexer struct {
	input   []byte // the whole input
	pos     int    // where the next line starts in input
	readErr error  // reported once the lines read before it are done
	line    int    // 1-based number of the current line
	fields  []span // the current line's fields, in input or in wide
	onWide  bool   // the fields are in wide
	wide    []byte // the fields of a line with a byte from 0x80 up, one after another
	err     error
}

// span is a field: bytes lo to hi of the input or of lexer.wide.
type span struct{ lo, hi int }

// newLexer reads r to the end, in one allocation when r reports its
// length (bytes.Reader, strings.Reader, bytes.Buffer).
func newLexer(r io.Reader) *lexer {
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + bytes.MinRead) // room for the read that sees io.EOF
	}
	_, err := buf.ReadFrom(r)
	return &lexer{input: buf.Bytes(), readErr: err}
}

// scan advances to the next line and splits it into fields. It returns
// false at the end of input or on an error, which err then reports.
// The line's tokens are split in one pass over their bytes, which stops
// at the newline or at a '#'; a comment is skipped to its newline with
// bytes.IndexByte.
func (lx *lexer) scan() bool {
	if lx.err != nil {
		return false
	}
	start := lx.pos
	text := lx.input[start:]
	if len(text) == 0 {
		lx.err = lx.readErr
		return false
	}
	lx.line++
	fields := lx.fields[:0]
	line := text[:min(len(text), maxLine)] // a line is no longer than this, or an error
	var seen uint8                         // union of the classes of the line's token bytes
	i := 0
	for i < len(line) {
		c := byteClass[line[i]]
		if c == cSpace {
			i++
			continue
		}
		if c == cEnd {
			break
		}
		lo := i
		for i++; i < len(line); i++ {
			if c := byteClass[line[i]]; c != 0 {
				if c&(cSpace|cEnd) != 0 {
					break
				}
				seen |= c
			}
		}
		seen |= c
		fields = append(fields, span{start + lo, start + i})
	}
	lx.fields, lx.onWide = fields, false
	code, end := i, i // the line's tokens end at code, the line at end
	if end < len(text) && text[end] != '\n' {
		// A comment, or a line as long as the limit.
		if j := bytes.IndexByte(text[end:], '\n'); j >= 0 {
			end += j
		} else {
			end = len(text)
		}
	}
	lx.pos = min(start+end+1, len(lx.input))
	if end >= maxLine {
		lx.err = errf(lx.line, "line longer than %d bytes", maxLine-1)
		return false
	}
	if seen&cWide != 0 {
		lx.splitWide(text[:code])
	}
	if seen&cQuote != 0 {
		return lx.noQuotes()
	}
	return true
}

// splitWide splits a line with a byte from 0x80 up as bytes.Fields
// does, into wide.
func (lx *lexer) splitWide(line []byte) {
	lx.wide, lx.fields, lx.onWide = lx.wide[:0], lx.fields[:0], true
	for _, f := range bytes.Fields(line) {
		lx.fields = append(lx.fields, span{len(lx.wide), len(lx.wide) + len(f)})
		lx.wide = append(lx.wide, f...)
	}
}

// noQuotes reports whether the line's fields are free of quotes, and
// records the error if not.
func (lx *lexer) noQuotes() bool {
	for i := range lx.fields {
		if f := lx.field(i); bytes.ContainsAny(f, "\"'") {
			lx.err = errf(lx.line, "quoting is not supported (token %q)", f)
			return false
		}
	}
	return true
}

// field returns the current line's field i.
func (lx *lexer) field(i int) []byte {
	f := lx.fields[i]
	if lx.onWide {
		return lx.wide[f.lo:f.hi]
	}
	return lx.input[f.lo:f.hi]
}

// texts returns the current line's fields as strings.
func (lx *lexer) texts() []string {
	s := make([]string, len(lx.fields))
	for i := range s {
		s[i] = string(lx.field(i))
	}
	return s
}
