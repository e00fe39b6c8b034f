package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"tsg/client"
	"tsg/internal/gen"
	"tsg/internal/netlist"
	"tsg/internal/serve"
	"tsg/internal/sg"
	"tsg/internal/store"
	"tsg/internal/textio"
)

func init() {
	register(Experiment{
		ID:    "CHAOS",
		Title: "fault injection: kill -9 durability (WAL replay, bit-identical λ) and overload shedding (admission control, deadlines)",
		Run:   runCHAOS,
	})
}

// runCHAOS is the robustness proof for the durable serving layer, in
// two phases.
//
// Phase 1 (durability): a durable server takes uploads and a committed
// edit sequence — including a deliberately duplicated (client, seq)
// retry — then dies mid-write (an injected torn-frame crash, the
// kill -9 moment). A restart on the same data directory must replay
// the write-ahead log into a state BIT-IDENTICAL to an uninterrupted
// oracle run of the same traffic: same λ (exact rational), same
// critical cycles, the exactly-once dedupe table intact across the
// crash. Compaction then rewrites the log and a third boot re-verifies
// the same state from the compacted form.
//
// Phase 2 (overload): a server with deliberately tiny capacity
// (1 in-flight + 2 queued per endpoint, 400ms request deadline) takes
// a burst of expensive Monte-Carlo traffic at several times capacity.
// Admitted requests must complete or be deadline-cancelled within the
// deadline plus scheduling grace — never hang — and shed requests must
// get clean 503s carrying Retry-After; fast traffic on other endpoints
// keeps flowing throughout (admission is per-endpoint).
func runCHAOS(w io.Writer) error {
	if err := chaosDurability(w); err != nil {
		return err
	}
	return chaosOverload(w)
}

// chaosScript is one graph's committed-edit traffic: canonical arc
// ranks with new delays, applied in order under one client's stamps.
type chaosScript struct {
	name  string
	text  string
	edits []serve.DelayEdit
}

// chaosScripts builds the durability workload: two graphs and an edit
// walk over each (delays nudged off their compile-time values so the
// recovered baseline is distinguishable from a mere recompile).
func chaosScripts() ([]chaosScript, error) {
	stack, err := gen.Stack(31)
	if err != nil {
		return nil, err
	}
	random, err := gen.RandomLive(rand.New(rand.NewSource(94)),
		gen.RandomOptions{Events: 300, Border: 8, ExtraArcs: 300, MaxDelay: 16})
	if err != nil {
		return nil, err
	}
	out := make([]chaosScript, 0, 2)
	for _, gw := range []struct {
		name string
		g    *sg.Graph
	}{{"stack-66", stack}, {"random-300", random}} {
		var buf bytes.Buffer
		if err := netlist.WriteTSG(&buf, gw.g); err != nil {
			return nil, err
		}
		order := sg.CanonicalArcOrder(gw.g)
		edits := make([]serve.DelayEdit, 6)
		for i := range edits {
			rank := (i * 7) % len(order)
			edits[i] = serve.DelayEdit{Arc: rank, Delay: gw.g.Arc(order[rank]).Delay + float64(i) + 0.5}
		}
		out = append(out, chaosScript{name: gw.name, text: buf.String(), edits: edits})
	}
	return out, nil
}

// postEdit posts one raw edit request (explicit (client, seq) stamps —
// the experiment controls duplication deliberately, so it bypasses the
// client package's automatic stamping).
func postEdit(base string, req serve.EditRequest) (*serve.EditResponse, int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, 0, err
	}
	resp, err := http.Post(base+"/v1/edit", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, resp.StatusCode, nil
	}
	var out serve.EditResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, resp.StatusCode, err
	}
	return &out, resp.StatusCode, nil
}

// chaosState is the comparable end state of one graph's traffic: the
// exact λ and the critical-cycle report.
type chaosState struct {
	lambda   serve.Lambda
	critical string
}

// driveChaosTraffic applies every script against the server: upload,
// then the edit walk under client stamp "chaos" with seqs 1..n, with
// edit 2 deliberately re-sent (the retry of a lost response — it must
// dedupe, not re-apply). Returns the final analyze state per graph.
func driveChaosTraffic(base string, scripts []chaosScript) (map[string]chaosState, error) {
	cl := client.New(base, client.WithRetries(0))
	ctx := context.Background()
	out := map[string]chaosState{}
	for _, sc := range scripts {
		up, err := cl.UploadText(ctx, sc.text)
		if err != nil {
			return nil, fmt.Errorf("upload %s: %w", sc.name, err)
		}
		ref := serve.GraphRef{Fingerprint: up.Fingerprint}
		for i, ed := range sc.edits {
			res, status, err := postEdit(base, serve.EditRequest{
				GraphRef: ref, Edits: []serve.DelayEdit{ed}, Client: "chaos", Seq: uint64(i + 1),
			})
			if err != nil || status != http.StatusOK {
				return nil, fmt.Errorf("edit %d on %s: status %d, err %v", i, sc.name, status, err)
			}
			if res.Deduped {
				return nil, fmt.Errorf("fresh edit %d on %s deduped", i, sc.name)
			}
			if i == 2 { // the duplicated retry
				dup, status, err := postEdit(base, serve.EditRequest{
					GraphRef: ref, Edits: []serve.DelayEdit{ed}, Client: "chaos", Seq: uint64(i + 1),
				})
				if err != nil || status != http.StatusOK {
					return nil, fmt.Errorf("duplicate edit on %s: status %d, err %v", sc.name, status, err)
				}
				if !dup.Deduped {
					return nil, fmt.Errorf("duplicate (chaos, %d) on %s re-applied instead of deduping", i+1, sc.name)
				}
				if dup.Lambda != res.Lambda {
					return nil, fmt.Errorf("deduped ack λ %s differs from original %s on %s", dup.Lambda.Text, res.Lambda.Text, sc.name)
				}
			}
		}
		st, err := chaosAnalyze(cl, up.Fingerprint)
		if err != nil {
			return nil, fmt.Errorf("final analyze %s: %w", sc.name, err)
		}
		out[sc.name] = st
	}
	return out, nil
}

func chaosAnalyze(cl *client.Client, fp string) (chaosState, error) {
	res, err := cl.Analyze(context.Background(), client.ByFingerprint(fp))
	if err != nil {
		return chaosState{}, err
	}
	return chaosState{lambda: res.Lambda, critical: fmt.Sprintf("%v", res.Critical)}, nil
}

func chaosDurability(w io.Writer) error {
	scripts, err := chaosScripts()
	if err != nil {
		return err
	}

	// Oracle: the same traffic against a plain in-memory server,
	// uninterrupted. This is the state the crashed node must recover.
	oracleSrv := httptest.NewServer(serve.New(serve.Config{}))
	oracle, err := driveChaosTraffic(oracleSrv.URL, scripts)
	oracleSrv.Close()
	if err != nil {
		return fmt.Errorf("exp: oracle run: %w", err)
	}

	dir, err := os.MkdirTemp("", "tsg-chaos-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Boot 1: durable server takes the full traffic, then dies on an
	// injected torn write — the WAL frame of the next edit is half
	// written when the process "loses power". Every acknowledged edit
	// is already fsync'd; the torn frame was never acknowledged.
	noCompact := store.Options{NoAutoCompact: true}
	st, s1, _, err := bootDurable(dir, noCompact, serve.Config{})
	if err != nil {
		return err
	}
	srv1 := httptest.NewServer(s1)
	if _, err := driveChaosTraffic(srv1.URL, scripts); err != nil {
		srv1.Close()
		return fmt.Errorf("exp: durable run: %w", err)
	}
	st.Arm(store.FailPartialWrite)
	res, status, err := postEdit(srv1.URL, serve.EditRequest{
		GraphRef: serve.GraphRef{Graph: scripts[0].text},
		Edits:    []serve.DelayEdit{{Arc: 0, Delay: 99}}, Client: "chaos", Seq: 100,
	})
	if err != nil {
		return fmt.Errorf("exp: crash edit transport: %w", err)
	}
	if status != http.StatusInternalServerError || res != nil {
		return fmt.Errorf("exp: edit during crash answered %d, want 500 (the WAL write died mid-frame)", status)
	}
	srv1.Close()
	st.Close()

	// Boot 2: reopen the same directory. Recovery must truncate the
	// torn tail, replay every acknowledged record, and restore a state
	// bit-identical to the oracle — including the dedupe table.
	st2, s2, rec, err := bootDurable(dir, noCompact, serve.Config{})
	if err != nil {
		return fmt.Errorf("exp: reopen after crash: %w", err)
	}
	defer st2.Close()
	if rec.TruncatedBytes == 0 {
		return fmt.Errorf("exp: recovery found no torn tail; the injected crash did not tear a frame")
	}
	srv2 := httptest.NewServer(s2)
	defer srv2.Close()
	graphs, edits := s2.WarmRestartCounts()
	if graphs != int64(len(scripts)) {
		return fmt.Errorf("exp: warm restart recompiled %d graphs, want %d", graphs, len(scripts))
	}

	tab := textio.New("CHAOS phase 1: kill -9 mid-write -> restart on the same data-dir",
		"graph", "oracle λ", "recovered λ", "criticals", "verdict")
	checkAll := func(label, base string) error {
		cl := client.New(base, client.WithRetries(0))
		for _, sc := range scripts {
			up, err := cl.UploadText(context.Background(), sc.text)
			if err != nil {
				return err
			}
			got, err := chaosAnalyze(cl, up.Fingerprint)
			if err != nil {
				return err
			}
			want := oracle[sc.name]
			if got.lambda != want.lambda || got.critical != want.critical {
				return fmt.Errorf("exp: %s state after %s: λ %s, oracle %s (criticals equal: %v)",
					sc.name, label, got.lambda.Text, want.lambda.Text, got.critical == want.critical)
			}
			if label == "recovery" {
				tab.AddRow(sc.name, want.lambda.Text, got.lambda.Text, "identical", "bit-identical")
			}
			// The dedupe table survived: the last applied (chaos, seq)
			// stamp still acks without re-applying.
			dup, status, err := postEdit(base, serve.EditRequest{
				GraphRef: serve.GraphRef{Fingerprint: up.Fingerprint},
				Edits:    []serve.DelayEdit{sc.edits[len(sc.edits)-1]},
				Client:   "chaos", Seq: uint64(len(sc.edits)),
			})
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("exp: cross-restart retry on %s after %s: status %d, err %v", sc.name, label, status, err)
			}
			if !dup.Deduped {
				return fmt.Errorf("exp: cross-restart retry on %s re-applied; the dedupe table did not survive %s", sc.name, label)
			}
		}
		return nil
	}
	if err := checkAll("recovery", srv2.URL); err != nil {
		return err
	}
	if err := tab.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "recovery: %d log records replayed, torn tail of %d bytes dropped, %d graphs recompiled, %d edits re-applied\n",
		rec.Records, rec.TruncatedBytes, graphs, edits)

	// Compaction: rewrite the log to its live state and prove a third
	// boot recovers the identical state from the compacted form.
	before := st2.Size()
	if err := st2.Compact(); err != nil {
		return fmt.Errorf("exp: compact: %w", err)
	}
	srv2.Close()
	st2.Close()
	st3, s3, _, err := bootDurable(dir, noCompact, serve.Config{})
	if err != nil {
		return fmt.Errorf("exp: reopen after compaction: %w", err)
	}
	defer st3.Close()
	srv3 := httptest.NewServer(s3)
	defer srv3.Close()
	if err := checkAll("compaction", srv3.URL); err != nil {
		return err
	}
	fmt.Fprintf(w, "compaction: log %d -> %d bytes; third boot recovers the identical state from the compacted form\n",
		before, st3.Size())
	return nil
}

// chaosOverload floods a deliberately tiny server and gates the
// shedding contract.
func chaosOverload(w io.Writer) error {
	random, err := gen.RandomLive(rand.New(rand.NewSource(95)),
		gen.RandomOptions{Events: 500, Border: 8, ExtraArcs: 500, MaxDelay: 16})
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := netlist.WriteTSG(&buf, random); err != nil {
		return err
	}

	const deadline = 400 * time.Millisecond
	const grace = 3 * time.Second // queue/scheduler slack on a loaded runner
	s := serve.New(serve.Config{MaxConcurrent: 1, MaxQueue: 2, RequestTimeout: deadline})
	srv := httptest.NewServer(s)
	defer srv.Close()
	ctx := context.Background()

	cl := client.New(srv.URL, client.WithHTTPClient(srv.Client()), client.WithRetries(0))
	up, err := cl.UploadText(ctx, buf.String())
	if err != nil {
		return fmt.Errorf("exp: overload upload: %w", err)
	}
	ref := client.ByFingerprint(up.Fingerprint)
	if _, err := cl.Analyze(ctx, ref); err != nil {
		return fmt.Errorf("exp: overload prime: %w", err)
	}

	burst, iters, samples := 10, 3, 50_000_000
	if Quick {
		burst, iters, samples = 6, 2, 10_000_000
	}
	// Each client alternates an expensive Monte-Carlo run far beyond
	// the deadline (even ops) with an analyze (odd ops). Every MC either
	// queues briefly, runs until the deadline cancels it, or is shed
	// outright — all three end inside deadline+grace. Admission is
	// per-endpoint, so MC saturation must not starve analyze.
	opts := []client.Option{client.WithHTTPClient(srv.Client()), client.WithRetries(0)}
	errs := make([][]error, burst) // errs[c][i]: op i of client c, written by that client only
	for c := range errs {
		errs[c] = make([]error, 2*iters)
	}
	res := load{url: srv.URL, opts: opts, workers: burst, per: 2 * iters, op: func(cl *client.Client, c, i int) error {
		var err error
		if i%2 == 0 {
			_, err = cl.MC(ctx, ref, client.MCRequest{Samples: samples, Workers: 1, Jitter: 0.2, Seed: 7})
		} else {
			_, err = cl.Analyze(ctx, ref)
		}
		errs[c][i] = err
		return err
	}}.run()
	type score struct {
		ok, shed, other int
		noRetryAfter    int
		slow            int // responses later than deadline+grace
		maxLatency      time.Duration
	}
	var mc, an score
	for k, latency := range res.lat {
		c, i := k/(2*iters), k%(2*iters)
		t := &mc
		if i%2 == 1 {
			t = &an
		}
		t.maxLatency = max(t.maxLatency, latency)
		if latency > deadline+grace {
			t.slow++
		}
		var api *client.APIError
		switch err := errs[c][i]; {
		case err == nil:
			t.ok++
		case errors.As(err, &api) && api.Status == http.StatusServiceUnavailable:
			t.shed++
			if api.RetryAfter <= 0 {
				t.noRetryAfter++
			}
		default:
			t.other++
		}
	}

	tab := textio.New(fmt.Sprintf("CHAOS phase 2: %d clients x %d rounds against capacity 1 (+2 queued), %s deadline",
		burst, iters, deadline),
		"endpoint", "ok", "shed (503)", "other", "max latency")
	tab.AddRow("/v1/mc", mc.ok, mc.shed, mc.other, mc.maxLatency.Round(time.Millisecond))
	tab.AddRow("/v1/analyze", an.ok, an.shed, an.other, an.maxLatency.Round(time.Millisecond))
	if err := tab.Render(w); err != nil {
		return err
	}

	if mc.shed == 0 {
		return fmt.Errorf("exp: %dx-capacity burst shed nothing; admission control is not engaging", burst)
	}
	if mc.noRetryAfter > 0 || an.noRetryAfter > 0 {
		return fmt.Errorf("exp: %d sheds arrived without Retry-After", mc.noRetryAfter+an.noRetryAfter)
	}
	if mc.other > 0 || an.other > 0 {
		return fmt.Errorf("exp: %d non-503 failures under overload", mc.other+an.other)
	}
	if mc.slow > 0 || an.slow > 0 {
		return fmt.Errorf("exp: %d responses later than deadline+%s; requests are hanging past their deadline", mc.slow+an.slow, grace)
	}
	if an.ok == 0 {
		return fmt.Errorf("exp: analyze starved during MC overload; per-endpoint admission is not isolating")
	}

	// The burst over, the MC endpoint must be fully recovered: a cheap
	// run admitted and answered.
	if _, err := cl.MC(ctx, ref, client.MCRequest{Samples: 16, Workers: 1, Jitter: 0.2, Seed: 7}); err != nil {
		return fmt.Errorf("exp: MC endpoint did not recover after the burst: %w", err)
	}
	fmt.Fprintf(w, "overload: %d/%d MC requests shed with 503+Retry-After, every response within %s+%s, analyze endpoint unaffected, endpoint recovered after the burst\n",
		mc.shed, burst*iters, deadline, grace)
	return nil
}
