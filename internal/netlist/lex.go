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
// strings.Fields splits them.
const (
	cSpace uint8 = 1 << iota
	cQuote
	cWide
)

var byteClass = func() (t [256]uint8) {
	for _, c := range "\t\n\v\f\r " {
		t[c] = cSpace
	}
	t['"'], t['\''] = cQuote, cQuote
	for c := 0x80; c < 0x100; c++ {
		t[c] = cWide
	}
	return t
}()

// lexer splits line-oriented input into whitespace-separated fields in
// one pass over the input bytes. '#' starts a comment and quoting is
// rejected. The fields of a line are subslices of the input, in a
// slice reused from line to line.
type lexer struct {
	rest    []byte // input not yet scanned
	readErr error  // reported once the lines read before it are done
	line    int    // 1-based number of the current line
	fields  [][]byte
	err     error
}

// newLexer reads r to the end, in one allocation when r reports its
// length (bytes.Reader, strings.Reader, bytes.Buffer).
func newLexer(r io.Reader) *lexer {
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + bytes.MinRead) // room for the read that sees io.EOF
	}
	_, err := buf.ReadFrom(r)
	return &lexer{rest: buf.Bytes(), readErr: err}
}

// scan advances to the next line and splits it into fields. It returns
// false at the end of input or on an error, which err then reports.
func (lx *lexer) scan() bool {
	if lx.err != nil {
		return false
	}
	if len(lx.rest) == 0 {
		lx.err = lx.readErr
		return false
	}
	lx.line++
	line := lx.rest
	if i := bytes.IndexByte(line, '\n'); i >= 0 {
		line, lx.rest = line[:i], line[i+1:]
	} else {
		lx.rest = nil
	}
	if len(line) >= maxLine {
		lx.err = errf(lx.line, "line longer than %d bytes", maxLine-1)
		return false
	}
	if i := bytes.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	lx.fields = lx.fields[:0]
	var seen uint8 // union of the classes of the line's token bytes
	for i := 0; i < len(line); {
		for i < len(line) && byteClass[line[i]] == cSpace {
			i++
		}
		if i == len(line) {
			break
		}
		start := i
		for ; i < len(line) && byteClass[line[i]] != cSpace; i++ {
			seen |= byteClass[line[i]]
		}
		lx.fields = append(lx.fields, line[start:i])
	}
	if seen&cWide != 0 {
		lx.fields = append(lx.fields[:0], bytes.Fields(line)...)
	}
	if seen&cQuote != 0 {
		for _, f := range lx.fields {
			if bytes.ContainsAny(f, "\"'") {
				lx.err = errf(lx.line, "quoting is not supported (token %q)", f)
				return false
			}
		}
	}
	return true
}

// texts returns the current line's fields as strings.
func (lx *lexer) texts() []string {
	s := make([]string, len(lx.fields))
	for i, f := range lx.fields {
		s[i] = string(f)
	}
	return s
}
