package timesim

import (
	"runtime"
	"testing"
	"weak"

	"tsg/internal/sg"
)

// TestReleasedSlabsDieWithSchedule: a released slab is reused by the
// next run of a live schedule, and once its schedule is dead the first
// GC frees it (a sync.Pool would keep it reachable for another cycle).
func TestReleasedSlabsDieWithSchedule(t *testing.T) {
	g, err := sg.NewBuilder("ring").Events("a+", "b+", "c+").
		Arc("a+", "b+", 1).Arc("b+", "c+", 2).Arc("c+", "a+", 3, sg.Marked()).Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.RunFrom(0, Options{Periods: 4})
	if err != nil {
		t.Fatal(err)
	}
	first := tr.slab
	tr.Release()
	if tr, err = s.RunFrom(1, Options{Periods: 4}); err != nil {
		t.Fatal(err)
	}
	if tr.slab != first {
		t.Fatal("the second run did not reuse the released slab")
	}
	slab := weak.Make(tr.slab)
	tr.Release()
	tr, s, first = nil, nil, nil
	runtime.GC()
	if slab.Value() != nil {
		t.Fatal("a dead schedule's pooled slab survived a GC")
	}
}
