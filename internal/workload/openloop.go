package workload

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"ulipc/internal/core"
	"ulipc/internal/livebind"
	"ulipc/internal/metrics"
	"ulipc/internal/obs"
)

// The open-loop load generator (DESIGN.md §14). The closed-loop harness
// in live.go cannot overload the system — each client waits for its
// reply before sending again, so the offered rate is capped by the
// completion rate. Real traffic is open-loop: arrivals come from a
// clock, not from completions, so offered load can exceed capacity and
// the interesting question becomes what the system does with the
// excess. This runner decouples the two rates: a Poisson (or bursty
// on/off) arrival process stamps each message with a deadline and
// injects it with the fire-and-forget async send, a bare polling
// collector drains replies, and the result separates offered load,
// admitted load, and goodput — replies that made their deadline.
//
// The collector never parks: its reply-queue awake flag is primed true
// once at start, so the server's reply-side TASAwake always sees an
// awake consumer and issues no V. No semaphore tokens accumulate over
// thousands of un-awaited replies, and the Figure 4 token conservation
// holds trivially for the collector (zero tokens in, zero out).

// OpenLoopConfig describes one open-loop overload cell.
type OpenLoopConfig struct {
	Alg     core.Algorithm
	Clients int

	// Rate is the aggregate offered arrival rate (messages/second)
	// across all clients; each client generates Rate/Clients.
	Rate float64

	// Duration is the arrival-generation window.
	Duration time.Duration

	// Burst switches the Poisson process to on/off modulation: arrivals
	// come at twice the rate during the first half of each BurstPeriod
	// and not at all during the second — same mean rate, clumped.
	Burst       bool
	BurstPeriod time.Duration // full on+off cycle; default 20ms

	// Deadline is stamped on every message (Val carries the absolute
	// deadline in nanoseconds since the run epoch): the server sheds
	// messages that expire before dequeue, the collector counts replies
	// arriving past it as Expiries rather than goodput. Default 5ms.
	Deadline time.Duration

	// Grace is the post-arrival drain window: how long the collectors
	// keep draining replies after the last arrival so the server can
	// finish (or shed) the backlog. Clients exit early once the request
	// queue is empty and no replies have arrived for a settle interval
	// longer than the producer backoff ceiling. Default 2*Deadline+50ms.
	Grace time.Duration

	// Seed makes the arrival streams deterministic; each client derives
	// its own xorshift stream from it. Default 1.
	Seed uint64

	// Overload doctrine knobs (zero disables each, as in
	// livebind.Admission): admission high-water mark, client retry
	// budget, group-mode quarantine circuit.
	HighWater  int
	RetryCap   float64
	Quarantine int

	// PaySize, when > 0, attaches a payload of that many bytes to every
	// request (OpWork zero-copy echo): sheds then exercise the
	// claim-free drop path and the post-run lease audit is non-trivial.
	// Not supported in group mode.
	PaySize int

	// Blocks overrides the arena slot count (PaySize cells only);
	// default 4*(Clients+1), minimum 32.
	Blocks int

	// CopyFallback degrades arena exhaustion to the heap overflow table
	// (PaySize cells only; see livebind.WithCopyFallback).
	CopyFallback bool

	MaxSpin    int
	QueueCap   int
	SpinIters  int
	SleepScale time.Duration

	// Shards, when > 0, runs the cell against a server group (the
	// quarantine circuit only exists there).
	Shards int
	Batch  int // vectored serve batch in group mode; default 16

	// Watchdog bounds the whole cell; default Duration+Grace+10s.
	Watchdog time.Duration
}

// OpenLoopResult is one open-loop cell's outcome. The load-balance
// identity is Offered = Admitted + Rejected + AllocFails; admitted
// messages end as Good, Expired, or Unanswered (shed, or stranded by a
// tripped watchdog).
type OpenLoopResult struct {
	Label string

	Offered    int64 // arrivals generated
	Admitted   int64 // successfully enqueued
	Rejected   int64 // fast-rejected (core.ErrOverload)
	AllocFails int64 // payload allocation denied (exhausted arena, no fallback)
	Completed  int64 // replies collected
	Good       int64 // replies collected within their deadline
	Expired    int64 // replies collected past their deadline
	Unanswered int64 // Admitted - Completed: shed or stranded

	OfferedPerSec float64
	GoodputPerSec float64

	// Goodput latency distribution (send to collection, ns); expired
	// replies are excluded — they are failures, not slow successes.
	P50Ns, P95Ns, P99Ns, MaxNs float64

	Duration time.Duration    // the arrival window
	All      metrics.Snapshot // aggregate counters (Sheds, Overloads, ...)
	Clients  metrics.Snapshot // client-side aggregate
}

func (cfg *OpenLoopConfig) defaults() error {
	if cfg.Clients < 1 {
		return fmt.Errorf("workload: open loop needs at least 1 client")
	}
	if cfg.Rate <= 0 {
		return fmt.Errorf("workload: open loop needs a positive arrival rate")
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 300 * time.Millisecond
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 5 * time.Millisecond
	}
	if cfg.Grace <= 0 {
		cfg.Grace = 2*cfg.Deadline + 50*time.Millisecond
	}
	if cfg.BurstPeriod <= 0 {
		cfg.BurstPeriod = 20 * time.Millisecond
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.SleepScale == 0 {
		cfg.SleepScale = time.Millisecond
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 16
	}
	if cfg.Watchdog <= 0 {
		cfg.Watchdog = cfg.Duration + cfg.Grace + 10*time.Second
	}
	if cfg.PaySize > 0 && cfg.Shards > 0 {
		return fmt.Errorf("workload: open-loop payload cells not supported in group mode")
	}
	return nil
}

// RunOpenLoop executes one open-loop overload cell: paced arrivals for
// cfg.Duration, a drain grace window, teardown, lease audit.
func RunOpenLoop(cfg OpenLoopConfig) (OpenLoopResult, error) {
	if err := cfg.defaults(); err != nil {
		return OpenLoopResult{}, err
	}
	slots := blockSlots(cfg.PaySize, cfg.Clients, cfg.Blocks)
	maxSpin, _ := tuneFor(cfg.Alg, cfg.MaxSpin, 0)
	opts := livebind.Options{
		Alg:        cfg.Alg,
		MaxSpin:    maxSpin,
		Clients:    cfg.Clients,
		QueueCap:   cfg.QueueCap,
		SpinIters:  cfg.SpinIters,
		SleepScale: cfg.SleepScale,
		BlockSlots: slots,
		Metrics:    metrics.NewSet(),
		Admission: livebind.Admission{
			HighWater:       cfg.HighWater,
			RetryCap:        cfg.RetryCap,
			QuarantineAfter: cfg.Quarantine,
		},
		CopyFallback: cfg.CopyFallback && slots > 0,
	}
	var (
		sys *livebind.System
		err error
	)
	if cfg.Shards > 0 {
		sys, err = livebind.NewSystemGroup(cfg.Shards, opts)
	} else {
		sys, err = livebind.NewSystem(opts)
	}
	if err != nil {
		return OpenLoopResult{}, err
	}
	return runOpenLoop(cfg, sys)
}

// olCounters is one client's tally; summed after the run.
type olCounters struct {
	offered, admitted, rejected, allocFails int64
	completed, good, expired                int64
	lat                                     obs.Histogram // goodput latency
}

func runOpenLoop(cfg OpenLoopConfig, sys *livebind.System) (OpenLoopResult, error) {
	// Servers: one vectored ServeBatchCtx per shard, or the scalar
	// ServeCtx; both run until Shutdown (no connect handshake — an
	// overloaded client may never get a disconnect through, so teardown
	// cannot depend on the connection protocol).
	var srvs []*core.Server
	if cfg.Shards > 0 {
		var err error
		if srvs, err = sys.ShardServers(); err != nil {
			return OpenLoopResult{}, err
		}
	} else {
		srvs = []*core.Server{sys.Server()}
	}
	cls, err := handles(cfg.Clients, sys.Client)
	if err != nil {
		return OpenLoopResult{}, err
	}
	c := newCell(sys, cfg.Alg, cfg.Clients, cfg.Watchdog)
	if cfg.Shards == 0 {
		// The auditor frees teardown leftovers through the server's
		// store, which also resolves heap-overflow refs.
		c.store = srvs[0].Blocks
	}

	// One shared run epoch: deadlines stamped by clients and checked by
	// the server's shed hook read the same clock.
	epoch := time.Now()
	nowNs := func() int64 { return time.Since(epoch).Nanoseconds() }
	shed := deadlineShed(nowNs)
	for _, sv := range srvs {
		sv.Shed = shed
		c.server(func() {
			var err error
			if cfg.Shards > 0 {
				_, err = sv.ServeBatchCtx(c.ctx, nil, cfg.Batch)
			} else {
				_, err = sv.ServeCtx(c.ctx, payWork(sv, cfg.PaySize, false))
			}
			if err != nil {
				c.noteErr("server: %v", err)
			}
		})
	}

	counts := make([]olCounters, cfg.Clients)
	for i, cl := range cls {
		c.client(func() {
			ctx, cancel := context.WithCancel(c.ctx)
			defer cancel()
			openLoopClient(ctx, cfg, cl, &counts[i], i, nowNs, c.noteErr)
		})
	}
	// The run ends on a wall-clock edge, not a drained system: arrivals
	// the server never dequeued and replies sent after a collector's
	// last drain are still queued, holding live leases. The auditor
	// claim-frees them (the shed path's discipline, applied at
	// teardown) before its lease audit, which therefore measures
	// protocol conservation, not the teardown cut line.
	c.joinClients()
	c.teardown()

	res := OpenLoopResult{Duration: cfg.Duration}
	var lat obs.HistSnapshot
	for i := range counts {
		n := &counts[i]
		res.Offered += n.offered
		res.Admitted += n.admitted
		res.Rejected += n.rejected
		res.AllocFails += n.allocFails
		res.Completed += n.completed
		res.Good += n.good
		res.Expired += n.expired
		lat.Merge(n.lat.Snapshot())
	}
	res.Unanswered = res.Admitted - res.Completed
	secs := cfg.Duration.Seconds()
	res.OfferedPerSec = float64(res.Offered) / secs
	res.GoodputPerSec = float64(res.Good) / secs
	res.P50Ns = lat.Quantile(0.50)
	res.P95Ns = lat.Quantile(0.95)
	res.P99Ns = lat.Quantile(0.99)
	res.MaxNs = float64(lat.Max)
	res.All = c.ms.Total()
	res.Clients = c.ms.ByPrefix("client")
	res.Label = fmt.Sprintf("openloop/%s/%dc", cfg.Alg, cfg.Clients)
	if cfg.Shards > 0 {
		res.Label += fmt.Sprintf("/%ds", cfg.Shards)
	}
	if cfg.Burst {
		res.Label += "/burst"
	}
	if c.tripped {
		c.noteErr("watchdog tripped after %v", cfg.Watchdog)
	}
	return res, c.err("open loop failed")
}

// openLoopClient is one client's generate-and-collect loop.
func openLoopClient(ctx context.Context, cfg OpenLoopConfig, cl *core.Client, c *olCounters,
	id int, nowNs func() int64, noteErr func(string, ...any)) {
	dlNs, durNs := cfg.Deadline.Nanoseconds(), cfg.Duration.Nanoseconds()
	// Prime the collector awake: the reply-side producer's TASAwake
	// always sees true, so no wake tokens accumulate while replies are
	// drained by polling (see the package comment above).
	cl.Rcv.SetAwake(true)
	drain := func() int {
		return collect(cl, func(m core.Msg) {
			c.completed++
			now := nowNs()
			dl := int64(m.Val)
			if now > dl {
				c.expired++
				if cl.M != nil {
					cl.M.Expiries.Add(1)
				}
			} else {
				c.good++
				c.lat.Record(time.Duration(now - (dl - dlNs)))
			}
		})
	}

	// send never blocks for longer than one drain window without
	// draining. A collector that stops draining while its send waits on
	// a full request queue deadlocks the cell: its reply queue fills
	// behind the blocked send, the server naps in Reply against it and
	// stops dequeuing, and the request slot the send waits for is one
	// only that server could free. Draining before each send is not
	// enough — the request queue plus the request the server holds can
	// owe this client one reply more than its reply queue holds.
	win, stop := context.WithTimeout(ctx, cfg.SleepScale)
	defer func() { stop() }()
	send := func(m core.Msg) error {
		for {
			if win.Err() != nil {
				stop()
				win, stop = context.WithTimeout(ctx, cfg.SleepScale)
			}
			err := cl.SendAsyncCtx(win, m)
			if err == nil || ctx.Err() != nil || !errors.Is(err, context.DeadlineExceeded) {
				return err
			}
			drain()
		}
	}

	rng := cfg.Seed + uint64(id+1)*0x9E3779B97F4A7C15
	if rng == 0 {
		rng = 1
	}
	perNs := cfg.Rate / float64(cfg.Clients) / 1e9 // arrivals per nanosecond
	if cfg.Burst {
		perNs *= 2 // on-half rate; the off-half contributes nothing
	}
	burstNs := cfg.BurstPeriod.Nanoseconds()
	var seq int32
	next := nowNs() + expNs(&rng, perNs)
	for ctx.Err() == nil {
		if cfg.Burst {
			// Arrivals scheduled into the off-half clump at the start of
			// the next period — the on/off square wave.
			if ph := next % burstNs; ph >= burstNs/2 {
				next += burstNs - ph
			}
		}
		if next >= durNs {
			break
		}
		// Pace to the arrival clock, draining replies while ahead. On a
		// single-CPU host time.Sleep granularity is coarse, so only
		// sleep when comfortably ahead of schedule; otherwise yield.
		for ctx.Err() == nil {
			d := next - nowNs()
			if d <= 0 {
				break
			}
			drain()
			if d > 500_000 {
				time.Sleep(time.Duration(d - 200_000))
			} else {
				runtime.Gosched()
			}
		}
		// Drain before every send, even when behind schedule, so the
		// reply backlog stays short while the generator catches up.
		drain()
		c.offered++
		seq++
		allocated, err := offer(cl, core.Msg{Op: core.OpEcho, Seq: seq, Val: float64(nowNs() + dlNs)}, cfg.PaySize, send)
		switch {
		case !allocated:
			c.allocFails++
		case err == nil:
			c.admitted++
		case errors.Is(err, core.ErrOverload):
			c.rejected++
		default:
			if ctx.Err() == nil {
				noteErr("client%d: send: %v", id, err)
			}
			return
		}
		next += expNs(&rng, perNs)
	}
	// The grace window opens when this client stops sending, not at the
	// end of the arrival window: a generator that fell behind schedule
	// finishes past durNs, and leaving at once would strand its queued
	// backlog.
	graceDrain(ctx, cl, drain, 8*cfg.SleepScale, nowNs, max(durNs, nowNs())+cfg.Grace.Nanoseconds())
	drain()
}

// offer sends one open-loop request through send. With paySize > 0 the
// request rides a fresh payload lease, returned to the arena if the
// request never reaches the queue; allocated is false when the arena
// had no block (the arrival is lost at the allocator, the open-loop
// analogue of a reject).
func offer(cl *core.Client, m core.Msg, paySize int, send func(core.Msg) error) (allocated bool, err error) {
	if paySize > 0 {
		p, err := cl.AllocPayload(paySize)
		if err != nil {
			return false, nil
		}
		m.Op = core.OpWork
		m.AttachPayload(p)
	}
	if err = send(m); err != nil && m.HasBlock() {
		ref, _ := m.Block()
		_ = cl.Blocks.Free(ref) // never enqueued: the lease is still ours
	}
	return true, err
}

// collect drains a polling collector's reply queue: each reply's
// payload lease is released and every echo is passed to got, while
// control ops (the shutdown marker) are skipped. It returns how many
// messages it dequeued.
func collect(cl *core.Client, got func(core.Msg)) int {
	n := 0
	for {
		m, ok := cl.Rcv.TryDequeue()
		if !ok {
			return n
		}
		n++
		if m.Op != core.OpEcho && m.Op != core.OpWork {
			continue
		}
		if m.HasBlock() {
			if p, err := cl.Payload(m); err == nil {
				_ = p.Release()
			}
		}
		got(m)
	}
}

// graceDrain collects a client's backlog after its last send: it keeps
// draining until the request queue is empty and no reply has arrived
// for longer than backoff (the reply producer's nap ceiling) plus a
// margin, so a server napping against this client's momentarily-full
// reply queue still gets its retry in before the client leaves. It
// also stops at hardEnd (on now's clock; 0 means none) or when ctx
// ends.
func graceDrain(ctx context.Context, cl *core.Client, drain func() int, backoff time.Duration, now func() int64, hardEnd int64) {
	settle := backoff.Nanoseconds() + 4_000_000
	quietSince := int64(-1)
	for ctx.Err() == nil && (hardEnd == 0 || now() < hardEnd) {
		if drain() > 0 || depth(cl) > 0 {
			quietSince = -1
		} else if t := now(); quietSince < 0 {
			quietSince = t
		} else if t-quietSince > settle {
			return
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// depth is a client's view of its request queue's backlog (0 when the
// port cannot tell).
func depth(cl *core.Client) int {
	if d, ok := cl.Srv.(core.DepthPort); ok {
		return d.Depth()
	}
	return 0
}

// expNs draws an exponential interarrival gap (ns) for the given
// per-nanosecond rate from a client-private xorshift64 stream.
func expNs(s *uint64, perNs float64) int64 {
	x := *s
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*s = x
	u := float64(x>>11) / (1 << 53) // uniform [0,1)
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	d := -math.Log(1-u) / perNs
	if d < 1 {
		d = 1
	}
	if d > 1e9 {
		d = 1e9 // one-second ceiling keeps a tiny rate from stalling the loop
	}
	return int64(d)
}
