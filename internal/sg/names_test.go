package sg_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"tsg/internal/sg"
)

// FuzzNameIndex checks the name index against a map. The input is a
// list of names separated by 0x00 bytes; names may repeat, be empty,
// carry bytes from 0x80 up or be prefixes of one another. They stream
// into a DenseBuilder whose size hint may be below their number, so
// that the index grows, and into a chaining Builder that is built once
// halfway and again at the end. Each graph must find exactly its own
// names, each arc its named ends, and a duplicate or empty name must
// fail with the error the map predicts.
func FuzzNameIndex(f *testing.F) {
	for _, seed := range []struct {
		names string
		hint  uint8
	}{
		{"a+\x00a-\x00b+\x00b-", 4},
		{"a\x00ab\x00abc\x00b\x00ba", 0},
		{"x\x00y\x00x", 1},
		{"\xff\x00\xc2\xa0\x00a\xe2\x80\x83b\x00eé+", 2},
		{"s\x00\x00t", 3},
		{strings.Repeat("n\x00nn\x00nnn\x00", 8) + "z", 5},
		{"v0\x00v1\x00v2\x00v3\x00v4\x00v5\x00v6\x00v7\x00v8\x00v9\x00v10\x00v11", 1},
	} {
		f.Add([]byte(seed.names), seed.hint)
	}
	f.Fuzz(func(t *testing.T, data []byte, hint uint8) {
		names := bytes.Split(data, []byte{0})
		dense := sg.NewDenseBuilder("f", int(hint), 0)
		chain := sg.NewBuilder("f")
		want := map[string]sg.EventID{}
		var order []string // names in ID order
		var wantErr string
		var half *sg.Graph
		halfNames := 0
		for i, name := range names {
			if i == len(names)/2 && wantErr == "" {
				g, err := chain.BuildUnchecked()
				if err != nil {
					t.Fatalf("first Build: %v", err)
				}
				half, halfNames = g, len(order)
			}
			repetitive := i%2 == 0
			dense.AddEventBytes(name, repetitive)
			if repetitive {
				chain.Event(string(name))
			} else {
				chain.Event(string(name), sg.NonRepetitive())
			}
			if wantErr != "" {
				continue
			}
			if _, dup := want[string(name)]; dup {
				wantErr = fmt.Sprintf("sg: duplicate event %q in graph %q", name, "f")
			} else if len(name) == 0 {
				wantErr = `sg: empty event name in graph "f"`
			} else {
				want[string(name)] = sg.EventID(len(order))
				order = append(order, string(name))
			}
		}
		for k := 1; k < len(order); k++ {
			dense.AddArcNamed([]byte(order[k-1]), []byte(order[k]), float64(k), false, false)
			chain.Arc(order[k-1], order[k], float64(k))
		}
		for _, b := range []interface{ Err() error }{dense, chain} {
			if got := fmt.Sprint(b.Err()); wantErr != "" && got != wantErr || wantErr == "" && b.Err() != nil {
				t.Fatalf("builder error %q, want %q", got, wantErr)
			}
		}
		if wantErr != "" {
			return
		}
		dg, err := dense.BuildUnchecked()
		if err != nil {
			t.Fatal(err)
		}
		cg, err := chain.BuildUnchecked()
		if err != nil {
			t.Fatal(err)
		}
		checkNames(t, "dense", dg, order, names)
		checkNames(t, "chain", cg, order, names)
		if half != nil {
			checkNames(t, "first build", half, order[:halfNames], names)
		}
	})
}

// checkNames checks that g holds exactly the events named by order, in
// that order, with arcs between consecutive names, and that no other
// name, nor a prefix or an extension of one, is found.
func checkNames(t *testing.T, side string, g *sg.Graph, order []string, tried [][]byte) {
	t.Helper()
	if g.NumEvents() != len(order) {
		t.Fatalf("%s: %d events, want %d", side, g.NumEvents(), len(order))
	}
	has := map[string]bool{}
	for i, name := range order {
		has[name] = true
		ev := g.Event(sg.EventID(i))
		sig, dir := name, sg.DirNone
		if s, ok := strings.CutSuffix(name, "+"); ok {
			sig, dir = s, sg.DirRise
		} else if s, ok := strings.CutSuffix(name, "-"); ok {
			sig, dir = s, sg.DirFall
		}
		if ev.Name != name || ev.Signal != sig || ev.Dir != dir {
			t.Fatalf("%s: event %d is %q (signal %q, %v), want %q (signal %q, %v)",
				side, i, ev.Name, ev.Signal, ev.Dir, name, sig, dir)
		}
		if id, ok := g.EventByName(name); !ok || id != sg.EventID(i) {
			t.Fatalf("%s: EventByName(%q) = %d, %v, want %d", side, name, id, ok, i)
		}
		if id := g.MustEvent(name); id != sg.EventID(i) {
			t.Fatalf("%s: MustEvent(%q) = %d, want %d", side, name, id, i)
		}
	}
	for k := 1; k < len(order) && k <= g.NumArcs(); k++ {
		if a := g.Arc(k - 1); a.From != sg.EventID(k-1) || a.To != sg.EventID(k) {
			t.Fatalf("%s: arc %d runs %d -> %d, want %d -> %d", side, k-1, a.From, a.To, k-1, k)
		}
	}
	var absent []string
	for _, name := range tried {
		s := string(name)
		absent = append(absent, s, s+"\x80", s+"+")
		if len(s) > 0 {
			absent = append(absent, s[:len(s)-1], s[1:])
		}
	}
	for _, name := range absent {
		if has[name] {
			continue
		}
		if id, ok := g.EventByName(name); ok {
			t.Fatalf("%s: EventByName(%q) found event %d (%q), which is not so named", side, name, id, g.Event(id).Name)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: MustEvent(%q) did not panic", side, name)
				}
			}()
			g.MustEvent(name)
		}()
	}
}
