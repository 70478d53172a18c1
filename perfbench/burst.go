package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ulipc/internal/core"
	"ulipc/internal/livebind"
	"ulipc/internal/metrics"
)

// The burst workload: an open loop against a 2-shard server group.
// Two clients each follow their own seeded on/off Poisson schedule
// (aggregate mean burstRate, twice that during the on half of each
// burstPeriod), send with SendAsyncCtx and poll their own replies
// between sends. Every request carries its absolute deadline (due time
// plus the 5 ms limit, relative to the run epoch) in Val; the shards
// shed requests that outlive it, admission rejects past high water.
//
// Each request has a ledger entry whose state moves only forward:
// issued -> admitted or rejected -> collected (or, found in a reply
// queue at teardown, leftover). The server side marks a separate
// served bit. At the end every admitted request must be collected,
// left over or shed, each exactly once. The metrics are computed from
// the ledgers after the phase, so the hot loop only stamps times.

const (
	burstClients = 2
	burstShards  = 2
	burstBatch   = 16
	burstRate    = 200_000 // aggregate mean arrivals per second
	burstPeriod  = 20 * time.Millisecond
	burstSettle  = 10 * time.Millisecond  // quiet time that ends a phase's drain
	burstWindow  = burstPeriod            // the measured phase is reported per on/off period
	burstWarmup  = 500 * time.Millisecond // untimed open loop before the measured phase
)

const (
	stIssued uint8 = iota
	stAdmitted
	stRejected
	stCollected
	stLeftover
)

// burstPhase is one phase's ledgers. served is written by the shard
// goroutines, everything else by the owning client goroutine.
type burstPhase struct {
	base   int32
	books  [burstClients]*openBook
	state  [burstClients][]uint8
	served [burstClients][]atomic.Uint32

	start, end int64 // the arrival window, set by phase
}

func newBurstPhase(base int32, epoch int64, capacity int) *burstPhase {
	p := &burstPhase{base: base}
	for c := range p.books {
		p.books[c] = newOpenBook(epoch, capacity)
		p.state[c] = make([]uint8, capacity)
		p.served[c] = make([]atomic.Uint32, capacity)
	}
	return p
}

// burstStats is what the ledgers of a stretch of due times add up to.
type burstStats struct {
	offered, rejected, good, expired int64
	due, rtt, lag                    hist
}

// stats tallies the requests due in [from, to). A collected request is
// good when it came back by its deadline.
func (p *burstPhase) stats(s *burstStats, from, to int64) {
	dl := deadline.Nanoseconds()
	for c, book := range p.books {
		// A client issues in due order, so its ledger is sorted by due.
		lo := sort.Search(book.n, func(i int) bool { return book.due(i) >= from })
		for i := lo; i < book.n && book.due(i) < to; i++ {
			s.offered++
			switch p.state[c][i] {
			case stRejected:
				s.rejected++
			case stCollected:
				fromDue, rtt, lag := book.charge(i)
				if fromDue <= dl {
					s.good++
				} else {
					s.expired++
				}
				s.due.add(fromDue)
				s.rtt.add(rtt)
				s.lag.add(lag)
			}
		}
	}
}

type burstSys struct {
	sys    *livebind.System
	ms     *metrics.Set
	cls    []*core.Client
	epoch  int64
	phases [3]*burstPhase // warm-up, measured, traced; fixed before serving starts
	tr     *traceBuf
	dups   atomic.Int64        // requests the shards saw twice
	bad    [burstClients]int64 // unknown, duplicate or mangled replies, per collecting client
	serr   [burstShards]error
	wg     sync.WaitGroup
	stop   context.CancelFunc
}

// lookup maps a Seq to its phase and ledger index.
func (b *burstSys) lookup(c int32, seq int32) (*burstPhase, int) {
	var p *burstPhase
	switch {
	case seq >= traceBase:
		p = b.phases[2]
	case seq >= warmBase:
		p = b.phases[0]
	case seq >= 0:
		p = b.phases[1]
	}
	if p == nil || c < 0 || int(c) >= burstClients {
		return nil, 0
	}
	i := int(seq - p.base)
	if i >= len(p.state[c]) {
		return nil, 0
	}
	return p, i
}

func buildBurst(ctx context.Context, phases [3]*burstPhase, epoch int64, tr *traceBuf) (*burstSys, error) {
	ms := metrics.NewSet()
	sys, err := livebind.NewSystemGroup(burstShards,
		livebind.Options{Alg: core.BSA, Clients: burstClients, SleepScale: time.Millisecond, Metrics: ms},
		livebind.WithAdmission(livebind.Admission{HighWater: 48, RetryCap: 32}))
	if err != nil {
		return nil, fmt.Errorf("build group: %w", err)
	}
	b := &burstSys{sys: sys, ms: ms, epoch: epoch, phases: phases, tr: tr}
	srvs, err := sys.ShardServers()
	if err != nil {
		return nil, fmt.Errorf("shard servers: %w", err)
	}
	shed := &core.ShedPolicy{
		Deadline: func(m core.Msg) (int64, bool) { return int64(m.Val), m.Op == core.OpWork },
		Now:      func() int64 { return mono() - epoch },
	}
	work := func(m *core.Msg) {
		e := tr.slot(m.Client, m.Seq)
		if e != nil {
			e.in = mono()
		}
		if p, i := b.lookup(m.Client, m.Seq); p != nil && p.served[m.Client][i].Swap(1) != 0 {
			b.dups.Add(1)
		}
		m.Val = transform(m.Val)
		if e != nil {
			e.out = mono()
		}
	}
	sctx, cancel := context.WithCancel(ctx)
	b.stop = cancel
	for i, srv := range srvs {
		srv.Shed = shed
		b.wg.Add(1)
		go func(i int, srv *core.Server) {
			defer b.wg.Done()
			_, b.serr[i] = srv.ServeBatchCtx(sctx, work, burstBatch)
		}(i, srv)
	}
	for i := 0; i < burstClients; i++ {
		cl, err := sys.Client(i)
		if err != nil {
			b.close(ctx)
			return nil, fmt.Errorf("client %d: %w", i, err)
		}
		// The collector polls and never parks: with its awake flag held
		// up, the shards issue no reply-side wake-ups.
		cl.Rcv.SetAwake(true)
		b.cls = append(b.cls, cl)
	}
	return b, nil
}

// firstReply sends client 0's first request and polls for its answer.
func (b *burstSys) firstReply(ctx context.Context) error {
	val := float64(time.Hour.Nanoseconds())
	cl := b.cls[0]
	if err := cl.SendAsyncCtx(ctx, core.Msg{Op: core.OpWork, Seq: setupSeq, Val: val}); err != nil {
		return fmt.Errorf("first request: %w", err)
	}
	for {
		if m, ok := cl.Rcv.TryDequeue(); ok {
			if m.Seq != setupSeq || m.Val != transform(val) {
				return fmt.Errorf("first reply seq %d val %v", m.Seq, m.Val)
			}
			return nil
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("first reply: %w", err)
		}
		runtime.Gosched()
	}
}

func (b *burstSys) close(ctx context.Context) error {
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	err := b.sys.Shutdown(sctx)
	if err != nil {
		b.stop()
	}
	b.wg.Wait()
	b.stop()
	if err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return errors.Join(b.serr[:]...)
}

// collect books one reply on client c's ledgers.
func (b *burstSys) collect(c int, m core.Msg, now int64) {
	p, i := b.lookup(int32(c), m.Seq)
	if p == nil || m.Op != core.OpWork || p.state[c][i] != stAdmitted {
		b.bad[c]++
		return
	}
	book := p.books[c]
	if m.Val != transform(float64(book.due(i)-b.epoch+deadline.Nanoseconds())) {
		b.bad[c]++
	}
	p.state[c][i] = stCollected
	book.collect(i, now)
	if e := b.tr.slot(int32(c), m.Seq); e != nil {
		e.ret = now
	}
}

func (b *burstSys) drain(c int) int {
	n := 0
	for {
		m, ok := b.cls[c].Rcv.TryDequeue()
		if !ok {
			return n
		}
		b.collect(c, m, mono())
		n++
	}
}

// depth is the total request-lane backlog.
func (b *burstSys) depth() int {
	n := 0
	for sh := 0; sh < burstShards; sh++ {
		if q, ok := b.sys.ShardChannel(sh).Queue().(interface{ Len() int }); ok {
			n += q.Len()
		}
	}
	return n
}

// client runs client c's schedule for one phase, then drains its
// replies until the lanes are empty and nothing has come back for
// burstSettle (or the drain limit passes).
func (b *burstSys) client(ctx context.Context, c int, p *burstPhase, arr *arrivals) error {
	cl := b.cls[c]
	book := p.books[c]
	dlNs := deadline.Nanoseconds()
	var serr error
	// While ahead of schedule the client keeps collecting: it sleeps
	// only in short steps, so a reply that lands during an off half
	// waits well under the deadline for it, and a late timer cannot
	// push the next send far past its due time.
	idle := func(ahead int64) {
		b.drain(c)
		if ahead > time.Millisecond.Nanoseconds() {
			time.Sleep(200 * time.Microsecond)
		} else {
			runtime.Gosched()
		}
	}
	send := func(due int64) bool {
		b.drain(c)
		if book.full() {
			return false
		}
		now := mono()
		i := book.issue(due, now)
		seq := p.base + int32(i)
		if e := b.tr.slot(int32(c), seq); e != nil {
			e.due, e.send = due, now
		}
		err := cl.SendAsyncCtx(ctx, core.Msg{Op: core.OpWork, Seq: seq, Val: float64(due - b.epoch + dlNs)})
		switch {
		case err == nil:
			p.state[c][i] = stAdmitted
		case errors.Is(err, core.ErrOverload):
			p.state[c][i] = stRejected
		default:
			serr = err
			return false
		}
		return true
	}
	pace(func() int64 { return book.quantize(arr.next()) }, p.end, mono, idle, send)
	if serr != nil {
		return fmt.Errorf("client %d send: %w", c, serr)
	}
	hard := mono() + 2*dlNs + 50*time.Millisecond.Nanoseconds()
	quiet := int64(-1)
	for now := mono(); now < hard; now = mono() {
		if b.drain(c) > 0 || b.depth() > 0 {
			quiet = -1
		} else if quiet < 0 {
			quiet = now
		} else if now-quiet > burstSettle.Nanoseconds() {
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// phase runs both clients for d of arrivals (or until the ledgers
// fill) and returns the window around it.
func (b *burstSys) phase(ctx context.Context, p *burstPhase, seed uint64, stream int, d time.Duration) (window, error) {
	var w window
	w.open(b.ms.Total)
	p.start = mono()
	p.end = p.start + d.Nanoseconds()
	errs := make([]error, burstClients)
	var wg sync.WaitGroup
	for c := 0; c < burstClients; c++ {
		arr := newArrivals(seed, stream*burstClients+c, burstRate/burstClients, burstPeriod.Nanoseconds(), p.start)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = b.client(ctx, c, p, arr)
		}(c)
	}
	wg.Wait()
	w.close(b.ms.Total)
	return w, errors.Join(errs...)
}

// reconcile checks the ledgers against the program's shed counter
// after teardown: offered = good + expired + rejected + shed +
// unanswered.
func (b *burstSys) reconcile(ck *checks, sheds int64) {
	var offered, collected, rejected, leftover, unserved int64
	for _, p := range b.phases {
		if p == nil {
			continue
		}
		for c, book := range p.books {
			offered += int64(book.n)
			for i := 0; i < book.n; i++ {
				served := p.served[c][i].Load() != 0
				seq := p.base + int32(i)
				switch p.state[c][i] {
				case stIssued:
					ck.fail(1, "request (client %d, seq %d) failed to send", c, seq)
				case stRejected:
					rejected++
					ck.check(!served, "rejected request (client %d, seq %d) was served", c, seq)
				case stAdmitted:
					unserved++ // never reached the work callback: it must have been shed
					ck.check(!served, "served request (client %d, seq %d) never came back", c, seq)
				case stCollected:
					collected++
					ck.check(served, "reply without service (client %d, seq %d)", c, seq)
				case stLeftover:
					leftover++
					ck.check(served, "reply without service (client %d, seq %d)", c, seq)
				}
			}
		}
	}
	for c, n := range b.bad {
		ck.fail(n, "client %d: %d replies were unknown, duplicated or did not match their requests", c, n)
	}
	ck.fail(b.dups.Load(), "%d requests were served twice", b.dups.Load())
	ck.check(unserved == sheds, "%d admitted requests never served, program shed %d", unserved, sheds)
	ck.check(offered == collected+rejected+sheds+leftover,
		"offered %d != good+expired %d + rejected %d + shed %d + unanswered %d",
		offered, collected, rejected, sheds, leftover)
}

// reclaim books the replies still queued after teardown as leftovers.
func (b *burstSys) reclaim() {
	for c, cl := range b.cls {
		for {
			m, ok := cl.Rcv.TryDequeue()
			if !ok {
				break
			}
			if p, i := b.lookup(int32(c), m.Seq); p != nil && p.state[c][i] == stAdmitted {
				p.state[c][i] = stLeftover
			} else {
				b.bad[c]++
			}
		}
	}
}

// audit checks the quiescent group's wake tokens, tears it down and
// reconciles its ledgers.
func (b *burstSys) audit(ck *checks) {
	for sh := 0; sh < burstShards; sh++ {
		n := b.sys.ShardChannel(sh).SemCount()
		ck.check(n <= 1, "shard %d request channel holds %d wake tokens", sh, n)
	}
	for i := range b.cls {
		n := b.sys.ReplyChannel(i).SemCount()
		ck.check(n <= 1, "reply channel %d holds %d wake tokens", i, n)
	}
	if err := b.close(context.Background()); err != nil {
		ck.fail(1, "teardown: %v", err)
	}
	b.reclaim()
	b.reconcile(ck, b.ms.Total().Sheds)
}

func bookCap(d time.Duration) int {
	return int(float64(burstRate/burstClients)*d.Seconds()*1.05) + 4096
}

// startBurst builds a group over the given phases and takes it to its
// first reply, returning the set-up time.
func startBurst(ctx context.Context, phases [3]*burstPhase, epoch int64, tr *traceBuf) (*burstSys, float64, error) {
	t0 := mono()
	b, err := buildBurst(ctx, phases, epoch, tr)
	if err != nil {
		return nil, 0, err
	}
	if err := b.firstReply(ctx); err != nil {
		b.close(ctx)
		return nil, 0, err
	}
	return b, float64(mono()-t0) / 1e9, nil
}

// runBurst measures one long-lived group: the open loop's tail is set
// by stalls, and rebuilding the group for every trial would add the
// collector's work on the old groups' garbage to them. Instead the
// measured phase is reported per burstWindow of due times, and each
// metric is the median over the windows, so a stall moves the windows
// it hits rather than the result.
func runBurst(rc *runCfg, ck *checks) (*outcome, error) {
	ctx, cancel := context.WithTimeout(context.Background(), rc.watchdog())
	defer cancel()
	out := newOutcome()
	var tri trials
	// Half the set-up rounds run before the measured group and half after
	// it, so setup_s samples the host at both ends of the run.
	setups := func(n int) error {
		for r := 0; r < n; r++ {
			b, dt, err := startBurst(ctx, [3]*burstPhase{}, mono(), nil)
			if err != nil {
				return err
			}
			tri.setups = append(tri.setups, dt)
			if err := b.close(ctx); err != nil {
				return err
			}
		}
		return nil
	}
	if err := setups(trialsPerRun * extraSetups / 2); err != nil {
		return nil, err
	}

	epoch := mono()
	phases := [3]*burstPhase{
		newBurstPhase(warmBase, epoch, bookCap(burstWarmup)),
		newBurstPhase(0, epoch, bookCap(rc.measure())),
	}
	var tr *traceBuf
	if rc.trace {
		tr = newTraceBuf(burstClients)
		phases[2] = newBurstPhase(traceBase, epoch, traceCap)
	}
	b, dt, err := startBurst(ctx, phases, epoch, tr)
	if err != nil {
		return nil, err
	}
	tri.setups = append(tri.setups, dt)
	if err := b.run(ctx, rc, out, &tri); err != nil {
		b.close(ctx)
		return nil, err
	}
	b.audit(ck)
	if err := setups(trialsPerRun * extraSetups / 2); err != nil {
		return nil, err
	}
	tri.report(out)
	out.e2e["peak_rss_mb"] = peakRSSMiB()
	if rc.trace {
		return out, finishTrace(rc, out, tr, out.e2e["due_p50_us"])
	}
	return out, nil
}

// run drives the warm-up, the measured phase and, when the system has
// one, the traced phase.
func (b *burstSys) run(ctx context.Context, rc *runCfg, out *outcome, tri *trials) error {
	if _, err := b.phase(ctx, b.phases[0], rc.seed, 0, burstWarmup); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	runtime.GC() // start the window with the set-up garbage collected
	p := b.phases[1]
	w, err := b.phase(ctx, p, rc.seed, 1, rc.measure())
	if err != nil {
		return err
	}
	win, secs := burstWindow.Nanoseconds(), burstWindow.Seconds()
	s := &burstStats{}
	for from := p.start; from+win <= p.end; from += win {
		*s = burstStats{}
		p.stats(s, from, from+win)
		if s.offered == 0 {
			continue // an off half with no arrival at all
		}
		done := s.good + s.expired
		tri.add(map[string]float64{
			"rtt_p50_us":    s.rtt.quantile(0.5) / 1e3,
			"rtt_p99_us":    s.rtt.quantile(0.99) / 1e3,
			"msgs_per_s":    float64(done) / secs,
			"bytes_per_s":   float64(done) * 8 / secs,
			"goodput_per_s": float64(s.good) / secs,
			"ontime_frac":   ratio(s.good, s.offered),
			"due_p50_us":    s.due.quantile(0.5) / 1e3,
			"due_p99_us":    s.due.quantile(0.99) / 1e3,
		})
	}
	*s = burstStats{}
	p.stats(s, p.start, p.end)
	done := s.good + s.expired
	tri.add(map[string]float64{"cpu_us_per_msg": float64(w.cpu1-w.cpu0) / 1e3 / float64(max(done, 1))})
	out.attempted += s.offered
	out.dists["due"], out.dists["rtt"] = s.due.dist(), s.rtt.dist()
	out.info["burst"] = map[string]int64{"offered": s.offered, "rejected": s.rejected, "good": s.good, "expired": s.expired}
	t := b.phases[2]
	if t == nil {
		return nil
	}
	tw, err := b.phase(ctx, t, rc.seed, 2, rc.measure())
	if err != nil {
		return fmt.Errorf("traced phase: %w", err)
	}
	*s = burstStats{}
	t.stats(s, t.start, t.end)
	out.attempted += s.offered
	layerCounters(out, countersOf(tw.m1).minus(countersOf(tw.m0)), s.good+s.expired, s.offered)
	var snaps []core.TunerSnapshot
	for _, ts := range b.sys.TunerSnapshots() {
		snaps = append(snaps, ts)
	}
	out.layer["core.tuner_budget"] = meanBudget(snaps)
	lag := s.lag.dist()
	out.dists["loadgen.lag"] = lag
	out.layer["loadgen.lag_us.p50"] = lag.P50us
	out.layer["loadgen.lag_us.p99"] = lag.P99us
	for c := range b.tr.n {
		b.tr.n[c] = t.books[c].n
	}
	return nil
}
