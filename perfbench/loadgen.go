package main

import "math"

// The open-loop generator of the burst workload. Arrivals are due on a
// seeded schedule whatever the system does, so a stall delays every
// later send; each request is timed from its due time, and how late
// the generator itself ran is reported apart (loadgen.lag_us).

// splitmix64 is the seed mixer every seeded input derives from.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// arrivals is one client's on/off Poisson schedule: exponential gaps
// at twice the mean rate during the first half of each period and no
// arrivals in the second half, so the mean rate is the one asked for.
// Gaps run on an "on-time" clock that is mapped onto the wall clock,
// so an arrival never lands in an off half.
type arrivals struct {
	rng    uint64
	perNs  float64 // on-phase arrivals per nanosecond
	halfNs int64   // on-phase length; 0 means plain Poisson
	start  int64   // wall time of on-time zero
	on     float64 // on-time of the last arrival
}

func newArrivals(seed uint64, stream int, meanPerSec float64, periodNs, start int64) *arrivals {
	a := &arrivals{
		rng:   splitmix64(seed ^ uint64(stream+1)*0xD1B54A32D192ED03),
		perNs: meanPerSec / 1e9,
		start: start,
	}
	if periodNs > 0 {
		a.perNs *= 2
		a.halfNs = periodNs / 2
	}
	return a
}

// next returns the due time of the next arrival.
func (a *arrivals) next() int64 {
	a.rng = splitmix64(a.rng)
	u := float64(a.rng>>11) / (1 << 53) // uniform [0,1)
	a.on += -math.Log(1-u) / a.perNs
	on := int64(a.on)
	if a.halfNs == 0 {
		return a.start + on
	}
	return a.start + (on/a.halfNs)*2*a.halfNs + on%a.halfNs
}

// pace issues arrivals from next until one is due at or after end: it
// waits for each due time (idle is called with how far ahead the
// generator is) and then calls send(due). A send that returns false
// stops the schedule. send reads the clock itself, so a send that
// stalls makes the following ones late, and the lag shows against
// their due times instead of vanishing from the record.
func pace(next func() int64, end int64, now func() int64, idle func(ahead int64), send func(due int64) bool) {
	for {
		due := next()
		if due >= end {
			return
		}
		for {
			ahead := due - now()
			if ahead <= 0 {
				break
			}
			idle(ahead)
		}
		if !send(due) {
			return
		}
	}
}

// openBook is one client's ledger for one open-loop phase, indexed by
// the request's sequence number within the phase: when each request
// was due, sent and collected. Times are stored as uint32 counts of
// 16 ns since the run epoch (good for 68 s), which keeps a 20 s phase
// at 100k requests/s to 24 MiB.
type openBook struct {
	epoch int64
	dues  []uint32
	sends []uint32
	rets  []uint32
	n     int // requests issued
}

const bookTick = 16 // ns per stored unit

func newOpenBook(epoch int64, capacity int) *openBook {
	return &openBook{epoch: epoch, dues: make([]uint32, capacity), sends: make([]uint32, capacity),
		rets: make([]uint32, capacity)}
}

// quantize rounds a due time down to the ledger's resolution, so the
// deadline a request carries is exactly recoverable from the ledger.
func (b *openBook) quantize(t int64) int64 { return t - (t-b.epoch)%bookTick }

func (b *openBook) tick(t int64) uint32 { return uint32((t - b.epoch) / bookTick) }

func (b *openBook) at(tick uint32) int64 { return b.epoch + int64(tick)*bookTick }

// full reports whether the ledger has no room for another request.
func (b *openBook) full() bool { return b.n == len(b.dues) }

// issue records a request due at due and sent at sent; it returns the
// request's sequence number.
func (b *openBook) issue(due, sent int64) int {
	i := b.n
	b.dues[i] = b.tick(due)
	b.sends[i] = b.tick(sent)
	b.n++
	return i
}

// due returns request i's due time.
func (b *openBook) due(i int) int64 { return b.at(b.dues[i]) }

// sent returns request i's send time.
func (b *openBook) sent(i int) int64 { return b.at(b.sends[i]) }

// collect records that request i's reply was collected at t.
func (b *openBook) collect(i int, t int64) { b.rets[i] = b.tick(t) }

// charge returns, for collected request i, its latency from the due
// time, its round trip from the send, and how late the send ran.
func (b *openBook) charge(i int) (fromDue, rtt, lag int64) {
	d, s, r := b.due(i), b.sent(i), b.at(b.rets[i])
	return r - d, r - s, s - d
}
