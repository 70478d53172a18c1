package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"
)

func TestQuantileIsNearestRank(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100; v++ {
		h.add(v)
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.99, 99}, {0.995, 100}, {0.01, 1}, {1, 100}} {
		if got := h.quantile(c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	var empty hist
	if got := empty.quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}

func TestQuantileRelativeError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, 20000)
	var h hist
	for i := range vals {
		vals[i] = int64(math.Exp(rng.Float64() * 25)) // 1 ns .. 72 s
		h.add(vals[i])
	}
	sorted := append([]int64(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 0.999} {
		want := float64(sorted[int(math.Ceil(q*float64(len(sorted))))-1])
		if got := h.quantile(q); math.Abs(got-want) > want/256+1 {
			t.Errorf("quantile(%v) = %v, want %v within 0.4%%", q, got, want)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	if !supported(1000, 0.99) {
		t.Error("1000 samples leave 10 beyond p99: want supported")
	}
	if supported(999, 0.99) {
		t.Error("999 samples leave fewer than 10 beyond p99: want unsupported")
	}
	if got := topQuantile(1000); math.Abs(got-0.99) > 1e-12 {
		t.Errorf("topQuantile(1000) = %v, want 0.99", got)
	}
	if got := topQuantile(200000); math.Abs(got-0.99995) > 1e-12 {
		t.Errorf("topQuantile(200000) = %v, want 0.99995", got)
	}
	if got := topQuantile(9); got != 0 {
		t.Errorf("topQuantile(9) = %v, want 0", got)
	}
	var h hist
	for v := int64(1); v <= 500; v++ {
		h.add(v)
	}
	d := h.dist()
	if d.N != 500 || d.P99Measured || d.TopPct != 98 || d.TopUs != 0.49 {
		t.Errorf("dist of 1..500 ns = %+v, want n 500, p99 unmeasured, top p98 = 0.49 us", d)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	parent := span{0, 100}
	for _, c := range []struct {
		name string
		kids []span
		want int64
	}{
		{"no children", nil, 100},
		{"tiling children", []span{{0, 40}, {40, 70}, {70, 100}}, 0},
		{"overlapping children", []span{{10, 30}, {20, 50}, {25, 35}}, 60},
		{"children sticking out", []span{{-5, 5}, {90, 120}}, 85},
		{"mixed", []span{{-5, 5}, {20, 50}, {10, 30}, {90, 120}}, 45},
		{"empty and inverted", []span{{30, 30}, {60, 50}}, 100},
		{"outside", []span{{200, 300}}, 100},
	} {
		if got := selfTime(parent, c.kids); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

// A stalled send must charge every request scheduled after it: their
// latency counts from their due time, and the generator's lag shows.
func TestPaceChargesStallToLaterRequests(t *testing.T) {
	clock := int64(0)
	dues := []int64{0, 16, 32, 48, 1024} // whole ledger ticks
	i := 0
	next := func() int64 { d := dues[i]; i++; return d }
	book := newOpenBook(0, 8)
	var idled int64
	pace(next, 512, func() int64 { return clock },
		func(ahead int64) { idled += ahead; clock += ahead },
		func(due int64) bool {
			book.issue(due, clock)
			if due == 0 {
				clock = 160 // the first send stalls for 160 ns
			}
			clock += 16
			return true
		})
	if book.n != 4 {
		t.Fatalf("issued %d requests, want the 4 due before the end", book.n)
	}
	if idled != 0 {
		t.Errorf("generator idled %d ns while behind schedule", idled)
	}
	for k := 0; k < book.n; k++ {
		book.collect(k, book.sent(k)+32) // every reply comes back 32 ns after its send
		fromDue, rtt, lag := book.charge(k)
		wantLag := int64(160)
		if k == 0 {
			wantLag = 0
		}
		if lag != wantLag || rtt != 32 || fromDue != wantLag+32 {
			t.Errorf("request %d: lag %d rtt %d from due %d, want %d, 32, %d", k, lag, rtt, fromDue, wantLag, wantLag+32)
		}
	}
}

func TestArrivalsReproduceFromSeed(t *testing.T) {
	const n = 20000
	draw := func(seed uint64, stream int) []int64 {
		a := newArrivals(seed, stream, 100_000, 20_000_000, 1_000)
		out := make([]int64, n)
		for i := range out {
			out[i] = a.next()
		}
		return out
	}
	a, b, c, d := draw(7, 0), draw(7, 0), draw(8, 0), draw(7, 1)
	same := func(x, y []int64) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if same(a, c) || same(a, d) {
		t.Fatal("another seed or stream gave the same schedule")
	}
	for i, due := range a {
		if i > 0 && due < a[i-1] {
			t.Fatalf("arrival %d at %d before its predecessor %d", i, due, a[i-1])
		}
		if phase := (due - 1_000) % 20_000_000; phase >= 10_000_000 {
			t.Fatalf("arrival %d falls in the off half (phase %d ns)", i, phase)
		}
	}
	rate := float64(n) / (float64(a[n-1]-1_000) / 1e9)
	if math.Abs(rate-100_000)/100_000 > 0.05 {
		t.Errorf("mean rate %.0f/s, want 100000/s within 5%%", rate)
	}
}

func TestOpenBookRecoversQuantizedDue(t *testing.T) {
	b := newOpenBook(1_000_003, 4)
	due := b.quantize(1_234_567)
	if due > 1_234_567 || 1_234_567-due >= bookTick {
		t.Fatalf("quantize moved the due time from 1234567 to %d", due)
	}
	i := b.issue(due, due+100)
	if got := b.due(i); got != due {
		t.Errorf("ledger due %d, want exactly %d", got, due)
	}
}

func TestPayloadRewriteVerifies(t *testing.T) {
	k := newPayloadKit(42)
	b := make([]byte, paySize)
	k.fill(b, 7)
	if k.verify(b, 7) {
		t.Fatal("an unrewritten payload verified")
	}
	k.rewrite(b, 7)
	if !k.verify(b, 7) {
		t.Fatal("the rewritten payload did not verify")
	}
	if k.verify(b, 8) {
		t.Fatal("the payload verified under another sequence number")
	}
	b[1023] ^= 1
	if k.verify(b, 7) {
		t.Fatal("a payload with its last byte flipped verified")
	}
}

// BENCHMARK.json and the metric tables must name the same metrics with
// the same units and directions, and every listed workload must exist.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json lists unknown workload %q", w.Name)
		}
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the table %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, table %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// Every per-layer metric must say which end-to-end metric it should
// move, on which workloads, in interactions.json.
func TestInteractionMapCoversPerLayerMetrics(t *testing.T) {
	raw, err := os.ReadFile("interactions.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		PerLayer map[string]struct {
			Moves    map[string][]string `json:"moves"`
			NoChange []string            `json:"no_change"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	e2e := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), tails...) {
		e2e[d.Name] = true
	}
	for _, d := range perLayer {
		entry, ok := m.PerLayer[d.Name]
		if !ok {
			t.Errorf("%s has no entry", d.Name)
			continue
		}
		for metric, ws := range entry.Moves {
			if !e2e[metric] {
				t.Errorf("%s moves unknown end-to-end metric %q", d.Name, metric)
			}
			for _, w := range ws {
				if workloads[w] == nil {
					t.Errorf("%s names unknown workload %q", d.Name, w)
				}
			}
		}
		for _, w := range entry.NoChange {
			if workloads[w] == nil {
				t.Errorf("%s names unknown workload %q", d.Name, w)
			}
		}
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Errorf("interactions.json has %d entries, the table %d metrics", len(m.PerLayer), len(perLayer))
	}
}
