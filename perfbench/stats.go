package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is a log-linear latency histogram over non-negative
// nanosecond values: exact below 512 ns, then 256 buckets per octave,
// so every reported quantile is within 0.4% of a sample value. It has
// a fixed 116 KiB footprint and does no allocation on the hot path,
// which keeps the benchmark's own bookkeeping out of peak RSS.
type hist struct {
	n      int64
	counts [histBuckets]int64
}

const (
	histSub     = 8 // log2 of the buckets per octave
	histExact   = 2 << histSub
	histBuckets = histExact + (64-histSub-1)*(1<<histSub)
)

func histIndex(v uint64) int {
	if v < histExact {
		return int(v)
	}
	e := bits.Len64(v) - histSub - 1 // >= 1
	return histExact + (e-1)<<histSub + int(v>>uint(e)) - 1<<histSub
}

// histBounds returns the bucket's lower bound and width.
func histBounds(i int) (lo, width uint64) {
	if i < histExact {
		return uint64(i), 1
	}
	e := uint((i-histExact)>>histSub) + 1
	mant := uint64((i-histExact)&(1<<histSub-1)) + 1<<histSub
	return mant << e, 1 << e
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histIndex(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	for i, c := range o.counts {
		h.counts[i] += c
	}
}

// quantile returns the nearest-rank q-quantile (the ceil(q*n)-th
// smallest sample), or 0 for an empty histogram. Within a bucket wider
// than 1 ns the samples are taken as evenly spread, so the rank is
// interpolated rather than snapped to the bucket's midpoint.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			lo, w := histBounds(i)
			if w == 1 {
				return float64(lo)
			}
			pos := float64(rank-(cum-c)) - 0.5 // rank within the bucket
			return float64(lo) + float64(w)*pos/float64(c)
		}
	}
	return 0
}

// minBeyond is how many samples must lie beyond a reported percentile
// for it to count as measured rather than extrapolated.
const minBeyond = 10

// supported reports whether n samples put at least minBeyond samples
// beyond the q-quantile.
func supported(n int64, q float64) bool {
	return float64(n)*(1-q) >= minBeyond-1e-9
}

// topQuantile is the highest quantile with at least minBeyond of n
// samples beyond it (0 when n is too small for any).
func topQuantile(n int64) float64 {
	if n < minBeyond {
		return 0
	}
	return 1 - float64(minBeyond)/float64(n)
}

// dist summarises one latency histogram the way every result reports
// it: median, p99, the highest supported percentile, and the sample
// count behind them. Values are microseconds.
type dist struct {
	N           int64   `json:"n"`
	P50us       float64 `json:"p50_us"`
	P99us       float64 `json:"p99_us"`
	P99Measured bool    `json:"p99_measured"`
	TopPct      float64 `json:"top_pct"`
	TopUs       float64 `json:"top_us"`
}

func (h *hist) dist() dist {
	top := topQuantile(h.n)
	return dist{
		N:           h.n,
		P50us:       h.quantile(0.50) / 1e3,
		P99us:       h.quantile(0.99) / 1e3,
		P99Measured: supported(h.n, 0.99),
		TopPct:      100 * top,
		TopUs:       h.quantile(top) / 1e3,
	}
}

// span is a half-open interval on the mono clock.
type span struct{ start, end int64 }

func (s span) dur() int64 {
	if s.end < s.start {
		return 0
	}
	return s.end - s.start
}

// selfTime is a span's duration minus the part of it its children
// cover. Children may overlap each other or stick out of the parent:
// only their union, clipped to the parent, is subtracted.
func selfTime(parent span, children []span) int64 {
	cl := make([]span, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			cl = append(cl, c)
		}
	}
	sort.Slice(cl, func(i, j int) bool { return cl[i].start < cl[j].start })
	covered := int64(0)
	cur := span{start: -1, end: -1}
	for _, c := range cl {
		if cur.end < 0 || c.start > cur.end {
			covered += cur.dur()
			cur = c
			continue
		}
		if c.end > cur.end {
			cur.end = c.end
		}
	}
	covered += cur.dur()
	return parent.dur() - covered
}
