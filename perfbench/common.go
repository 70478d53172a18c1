package main

import (
	"fmt"
	"sort"
	"sync"
	"syscall"
	"time"

	"ulipc/internal/core"
	"ulipc/internal/metrics"
)

// Sequence-number ranges keep the phases of a run apart, so the
// server's work callback can tell a traced request from an untraced
// one by its Seq alone and runs the same code in both runs.
const (
	setupSeq  int32 = -1      // the first request of every setup round
	warmBase  int32 = 1 << 29 // warm-up requests
	traceBase int32 = 1 << 30 // traced requests: Seq-traceBase indexes the span buffer
)

// deadline is the latency limit a reply must meet to count as on time:
// the burst workload stamps it on each request (and the server sheds
// requests that outlive it); the closed loops apply it to the round
// trip.
const deadline = 5 * time.Millisecond

// transform is the work callback's checkable rewrite of Msg.Val. Every
// Val the benchmark sends is an integer below 2^50, so the result is
// exact in float64.
func transform(v float64) float64 { return 2*v + 1 }

// reqVal is the seeded argument of closed-loop request seq of client c.
func reqVal(seed uint64, c int, seq int32) float64 {
	return float64(splitmix64(seed^uint64(c)<<40^uint64(uint32(seq))) >> 24)
}

// checks collects correctness violations. Every violation counts as a
// failed operation; the first few are kept for the report.
type checks struct {
	mu     sync.Mutex
	failed int64
	notes  []string
}

func (c *checks) fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failed += n
	if len(c.notes) < 16 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

func (c *checks) check(ok bool, format string, args ...any) {
	if !ok {
		c.fail(1, format, args...)
	}
}

// outcome is what a workload run hands back to main.
type outcome struct {
	attempted int64
	e2e       map[string]float64 // untraced run: every end-to-end metric
	layer     map[string]float64 // traced run: every per-layer metric
	dists     map[string]dist    // sample counts behind each percentile
	info      map[string]any     // anything else worth a line in the report
}

func newOutcome() *outcome {
	return &outcome{
		e2e:   map[string]float64{},
		layer: map[string]float64{},
		dists: map[string]dist{},
		info:  map[string]any{},
	}
}

// cpuNs returns this process's user+system CPU time.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMiB returns this process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// window is one measured interval: wall time, CPU time and the
// program's own counters at both ends.
type window struct {
	t0, t1     int64
	cpu0, cpu1 int64
	m0, m1     metrics.Snapshot
}

func (w *window) open(m func() metrics.Snapshot) {
	w.m0 = m()
	w.cpu0 = cpuNs()
	w.t0 = mono()
}

func (w *window) close(m func() metrics.Snapshot) {
	w.t1 = mono()
	w.cpu1 = cpuNs()
	w.m1 = m()
}

func (w *window) secs() float64 { return float64(w.t1-w.t0) / 1e9 }

// counters is the slice of metrics.Snapshot the per-layer metrics read.
type counters struct {
	SemP, Blocks, Wakeups, Yields, Sleeps int64
	SpinLoops, SpinIters, SpinFallThrus   int64
	Sheds, Overloads, Retries             int64
	BlockRefills                          int64
}

func countersOf(s metrics.Snapshot) counters {
	return counters{
		SemP: s.SemP, Blocks: s.Blocks, Wakeups: s.Wakeups, Yields: s.Yields, Sleeps: s.Sleeps,
		SpinLoops: s.SpinLoops, SpinIters: s.SpinIters, SpinFallThrus: s.SpinFallThrus,
		Sheds: s.Sheds, Overloads: s.Overloads, Retries: s.Retries,
		BlockRefills: s.BlockRefills,
	}
}

func (a counters) minus(b counters) counters {
	return counters{
		SemP:          a.SemP - b.SemP,
		Blocks:        a.Blocks - b.Blocks,
		Wakeups:       a.Wakeups - b.Wakeups,
		Yields:        a.Yields - b.Yields,
		Sleeps:        a.Sleeps - b.Sleeps,
		SpinLoops:     a.SpinLoops - b.SpinLoops,
		SpinIters:     a.SpinIters - b.SpinIters,
		SpinFallThrus: a.SpinFallThrus - b.SpinFallThrus,
		Sheds:         a.Sheds - b.Sheds,
		Overloads:     a.Overloads - b.Overloads,
		Retries:       a.Retries - b.Retries,
		BlockRefills:  a.BlockRefills - b.BlockRefills,
	}
}

func (a counters) plus(b counters) counters {
	return counters{
		SemP:          a.SemP + b.SemP,
		Blocks:        a.Blocks + b.Blocks,
		Wakeups:       a.Wakeups + b.Wakeups,
		Yields:        a.Yields + b.Yields,
		Sleeps:        a.Sleeps + b.Sleeps,
		SpinLoops:     a.SpinLoops + b.SpinLoops,
		SpinIters:     a.SpinIters + b.SpinIters,
		SpinFallThrus: a.SpinFallThrus + b.SpinFallThrus,
		Sheds:         a.Sheds + b.Sheds,
		Overloads:     a.Overloads + b.Overloads,
		Retries:       a.Retries + b.Retries,
		BlockRefills:  a.BlockRefills + b.BlockRefills,
	}
}

func ratio(num, den int64) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// layerCounters turns the counter deltas of a traced window into the
// per-layer rates. msgs is the completed round trips; offered the
// requests attempted (equal on the closed loops).
func layerCounters(out *outcome, c counters, msgs, offered int64) {
	l := out.layer
	l["core.spin_iters_per_msg"] = ratio(c.SpinIters, msgs)
	l["core.spin_fallthru_frac"] = ratio(c.SpinFallThrus, c.SpinLoops)
	l["core.shed_frac"] = ratio(c.Sheds, offered)
	l["core.overload_frac"] = ratio(c.Overloads, offered)
	l["core.retries_per_msg"] = ratio(c.Retries, offered)
	l["livebind.sem_p_per_msg"] = ratio(c.SemP, msgs)
	l["livebind.blocks_per_msg"] = ratio(c.Blocks, msgs)
	l["livebind.wakeups_per_msg"] = ratio(c.Wakeups, msgs)
	l["livebind.yields_per_msg"] = ratio(c.Yields, msgs)
	l["livebind.sleeps_per_msg"] = ratio(c.Sleeps, msgs)
	l["shm.block_refills_per_msg"] = ratio(c.BlockRefills, msgs)
}

// meanBudget is the mean spin budget over a set of BSA controllers (0
// when the protocol has none).
func meanBudget(snaps []core.TunerSnapshot) float64 {
	if len(snaps) == 0 {
		return 0
	}
	var sum int64
	for _, s := range snaps {
		sum += s.Budget
	}
	return float64(sum) / float64(len(snaps))
}

// closedTrial returns the end-to-end metrics of one closed-loop
// trial. On a closed loop a request is due when it is sent, so the
// due-time latencies are the round trip; a round trip within the
// deadline is on time, and bytes are the verified reply bytes (the
// 8-byte Val, or the payload on xproc-zc).
func closedTrial(rtt *hist, ontime, msgs int64, secs, cpuNs float64, bytesPerMsg int) map[string]float64 {
	d := rtt.dist()
	return map[string]float64{
		"rtt_p50_us":     d.P50us,
		"rtt_p99_us":     d.P99us,
		"msgs_per_s":     float64(msgs) / secs,
		"cpu_us_per_msg": cpuNs / 1e3 / float64(max(msgs, 1)),
		"bytes_per_s":    float64(msgs) * float64(bytesPerMsg) / secs,
		"goodput_per_s":  float64(ontime) / secs,
		"ontime_frac":    ratio(ontime, msgs),
		"due_p50_us":     d.P50us,
		"due_p99_us":     d.P99us,
	}
}

// trials collects the per-trial end-to-end metrics of a run. A run
// measures several trials, each on a freshly built system, and reports
// every metric as the median over them: a host state that settles in
// when a system starts (where its threads land, which mode an adaptive
// spin budget falls into) then moves one trial, not the whole result.
type trials struct {
	values map[string][]float64
	setups []float64
}

func (t *trials) add(m map[string]float64) {
	if t.values == nil {
		t.values = map[string][]float64{}
	}
	for k, v := range m {
		t.values[k] = append(t.values[k], v)
	}
}

// report puts the medians, the median set-up time and the per-trial
// values into out.
func (t *trials) report(out *outcome) {
	for k, xs := range t.values {
		out.e2e[k] = median(xs)
	}
	out.e2e["setup_s"] = median(t.setups)
	out.info["trials"] = t.values
	out.info["setup_rounds"] = len(t.setups)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
