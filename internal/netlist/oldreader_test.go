package netlist

import (
	"bufio"
	"io"
	"strconv"
	"strings"

	"tsg/internal/dist"
	"tsg/internal/sg"
)

// This file keeps the line-at-a-time .tsg reader the one-pass reader
// replaced — bufio.Scanner lines, strings.Fields tokens, the chaining
// sg.Builder — as the oracle for the differential tests in
// readerdiff_test.go.

// oldReadTSGDist is ReadTSGDist over the old reader.
func oldReadTSGDist(r io.Reader) (*sg.Graph, *dist.Model, error) {
	b, anns, err := oldReadTSG(r)
	if err != nil {
		return nil, nil, err
	}
	g, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	m, err := delayModel(g, anns)
	if err != nil {
		return nil, nil, err
	}
	return g, m, nil
}

// oldReadTSG is the replaced readTSGBuilder.
func oldReadTSG(r io.Reader) (*sg.Builder, []arcAnn, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var b *sg.Builder
	var anns []arcAnn
	line := 0
	arcs := 0
	for sc.Scan() {
		line++
		fields, err := oldSplitLine(sc.Text(), line)
		if err != nil {
			return nil, nil, err
		}
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "tsg":
			if b != nil {
				return nil, nil, errf(line, "duplicate tsg header")
			}
			if len(fields) != 2 {
				return nil, nil, errf(line, "usage: tsg <name>")
			}
			b = sg.NewBuilder(fields[1])
		case "event":
			if b == nil {
				return nil, nil, errf(line, "event before tsg header")
			}
			if len(fields) < 2 || len(fields) > 3 {
				return nil, nil, errf(line, "usage: event <name> [nonrepetitive]")
			}
			var opts []sg.EventOption
			if len(fields) == 3 {
				if fields[2] != "nonrepetitive" {
					return nil, nil, errf(line, "unknown event attribute %q", fields[2])
				}
				opts = append(opts, sg.NonRepetitive())
			}
			b.Event(fields[1], opts...)
		case "arc":
			if b == nil {
				return nil, nil, errf(line, "arc before tsg header")
			}
			if len(fields) < 4 {
				return nil, nil, errf(line, "usage: arc <from> <to> <delay> [marked] [once] [~dist] [@group]")
			}
			delay, err := strconv.ParseFloat(fields[3], 64)
			if err != nil {
				return nil, nil, errf(line, "bad delay %q: %v", fields[3], err)
			}
			ann := arcAnn{arc: arcs, line: line}
			var opts []sg.ArcOption
			for _, attr := range fields[4:] {
				switch {
				case attr == "marked":
					opts = append(opts, sg.Marked())
				case attr == "once":
					opts = append(opts, sg.Once())
				case strings.HasPrefix(attr, "~"):
					if ann.hasDist {
						return nil, nil, errf(line, "duplicate distribution annotation %q", attr)
					}
					d, err := dist.Parse(attr[1:])
					if err != nil {
						return nil, nil, errf(line, "%v", err)
					}
					ann.d, ann.hasDist = d, true
				case strings.HasPrefix(attr, "@"):
					if ann.group != "" {
						return nil, nil, errf(line, "duplicate correlation tag %q", attr)
					}
					if attr == "@" {
						return nil, nil, errf(line, "empty correlation tag")
					}
					ann.group = attr[1:]
				default:
					return nil, nil, errf(line, "unknown arc attribute %q", attr)
				}
			}
			b.Arc(fields[1], fields[2], delay, opts...)
			if ann.hasDist || ann.group != "" {
				anns = append(anns, ann)
			}
			arcs++
		default:
			return nil, nil, errf(line, "unknown directive %q", fields[0])
		}
		if err := b.Err(); err != nil {
			return nil, nil, errf(line, "%v", err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if b == nil {
		return nil, nil, errf(line, "missing tsg header")
	}
	return b, anns, nil
}

// oldSplitLine tokenises one line, stripping comments.
func oldSplitLine(s string, line int) ([]string, error) {
	if i := strings.IndexByte(s, '#'); i >= 0 {
		s = s[:i]
	}
	fields := strings.Fields(s)
	for _, f := range fields {
		if strings.ContainsAny(f, "\"'") {
			return nil, errf(line, "quoting is not supported (token %q)", f)
		}
	}
	return fields, nil
}
