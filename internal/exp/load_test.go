package exp

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"tsg/client"
)

// The zero-failed-requests gates of CLUSTER and CHAOS2 read the
// driver's counts, so a driver that lost a failure would pass them.

func TestLoadCountBound(t *testing.T) {
	const workers, per = 4, 25
	fails := map[[2]int]bool{{0, 3}: true, {0, 24}: true, {2, 0}: true, {2, 7}: true, {3, 11}: true}
	var calls [workers][per]atomic.Int32
	res := load{url: "http://127.0.0.1:1", workers: workers, per: per, op: func(cl *client.Client, w, i int) error {
		if cl == nil {
			t.Error("op got no client")
		}
		calls[w][i].Add(1)
		if fails[[2]int{w, i}] {
			return fmt.Errorf("op %d/%d failed", w, i)
		}
		return nil
	}}.run()
	for w := range calls {
		for i := range calls[w] {
			if n := calls[w][i].Load(); n != 1 {
				t.Errorf("op (%d, %d) ran %d times, want 1", w, i, n)
			}
		}
	}
	if res.ops != workers*per || res.failed != len(fails) || len(res.lat) != workers*per {
		t.Fatalf("ops %d, failed %d, %d latencies; want %d, %d, %d", res.ops, res.failed, len(res.lat), workers*per, len(fails), workers*per)
	}
	if res.first == nil || res.first.Error() != "op 0/3 failed" {
		t.Fatalf("first error %v, want op 0/3 failed", res.first)
	}
	if err := res.check("in the test"); err == nil {
		t.Fatal("check passed a load with failures")
	}
	clean := load{workers: 2, per: 3, op: func(*client.Client, int, int) error { return nil }}.run()
	if err := clean.check("in the test"); err != nil || clean.ops != 6 || clean.failed != 0 {
		t.Fatalf("clean load: ops %d, failed %d, check %v", clean.ops, clean.failed, err)
	}
}

func TestLoadStopBound(t *testing.T) {
	const workers = 3
	var stopped atomic.Bool
	var ran [workers]atomic.Int64
	r := load{workers: workers, pause: time.Millisecond, op: func(_ *client.Client, w, i int) error {
		time.Sleep(2 * time.Millisecond)
		if stopped.Load() {
			t.Error("an op was still running after stop returned")
		}
		ran[w].Add(1)
		if i%5 == 4 {
			return fmt.Errorf("op %d/%d failed", w, i)
		}
		return nil
	}}.start()
	for ran[0].Load() < 10 || ran[1].Load() < 10 || ran[2].Load() < 10 {
		time.Sleep(time.Millisecond)
	}
	res := r.stop()
	stopped.Store(true)
	var total int64
	for w := range ran {
		total += ran[w].Load()
	}
	time.Sleep(10 * time.Millisecond)
	var after int64
	for w := range ran {
		after += ran[w].Load()
	}
	if after != total {
		t.Fatalf("%d ops ran after stop returned", after-total)
	}
	if int64(res.ops) != total || len(res.lat) != res.ops {
		t.Fatalf("stop reported %d ops and %d latencies, the op ran %d times", res.ops, len(res.lat), total)
	}
	if want := int(ran[0].Load()/5 + ran[1].Load()/5 + ran[2].Load()/5); res.failed != want {
		t.Fatalf("stop reported %d failures, want %d", res.failed, want)
	}
}

func TestQuantile(t *testing.T) {
	ds := []time.Duration{5, 1, 4, 2, 3}
	for _, c := range []struct {
		pct  int
		want time.Duration
	}{{0, 1}, {50, 3}, {99, 5}} {
		if got := quantile(ds, c.pct); got != c.want {
			t.Errorf("quantile(%v, %d) = %v, want %v", ds, c.pct, got, c.want)
		}
	}
	if ds[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
	if quantile(nil, 99) != 0 {
		t.Error("quantile of no samples is not 0")
	}
}
