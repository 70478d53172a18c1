package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ulipc/internal/core"
	"ulipc/internal/livebind"
	"ulipc/internal/metrics"
)

// The in-process closed loops: pingpong (BSA, one client, observer on)
// and wake2 (BSW, two clients). Each client keeps one OpWork request in
// flight through SendCtx; the server's work callback applies transform
// and, for traced requests, stamps its entry and exit.

type inprocSpec struct {
	alg      core.Algorithm
	clients  int
	observer bool
}

// inproc is one built system with its serving goroutine.
type inproc struct {
	sys  *livebind.System
	ms   *metrics.Set
	cls  []*core.Client
	tr   *traceBuf
	sent []int64 // requests each client issued (owned by its loop)
	// served counts the requests the work callback saw per client; the
	// single server goroutine owns it until wg.Wait.
	served  []int64
	badSrv  int64 // requests the callback rejected (out-of-range client)
	serr    error
	wg      sync.WaitGroup
	stopSrv context.CancelFunc
}

func buildInproc(ctx context.Context, sp inprocSpec, tr *traceBuf) (*inproc, error) {
	ms := metrics.NewSet()
	opts := []livebind.Option{}
	if sp.observer {
		opts = append(opts, livebind.WithHistograms())
	}
	sys, err := livebind.NewSystem(livebind.Options{Alg: sp.alg, Clients: sp.clients, Metrics: ms}, opts...)
	if err != nil {
		return nil, fmt.Errorf("build system: %w", err)
	}
	s := &inproc{sys: sys, ms: ms, tr: tr, sent: make([]int64, sp.clients), served: make([]int64, sp.clients)}
	srv := sys.Server()
	work := func(m *core.Msg) {
		e := s.tr.slot(m.Client, m.Seq)
		if e != nil {
			e.in = mono()
		}
		if m.Client < 0 || int(m.Client) >= len(s.served) {
			s.badSrv++
			return
		}
		s.served[m.Client]++
		m.Val = transform(m.Val)
		if e != nil {
			e.out = mono()
		}
	}
	sctx, cancel := context.WithCancel(ctx)
	s.stopSrv = cancel
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_, s.serr = srv.ServeCtx(sctx, work)
	}()
	for i := 0; i < sp.clients; i++ {
		cl, err := sys.Client(i)
		if err != nil {
			s.close(ctx)
			return nil, fmt.Errorf("client %d: %w", i, err)
		}
		s.cls = append(s.cls, cl)
	}
	return s, nil
}

// close shuts the system down and waits for the server goroutine.
func (s *inproc) close(ctx context.Context) error {
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	err := s.sys.Shutdown(sctx)
	if err != nil {
		s.stopSrv()
	}
	s.wg.Wait()
	s.stopSrv()
	if err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if s.serr != nil {
		return fmt.Errorf("server: %w", s.serr)
	}
	return nil
}

// firstReply sends client 0's first request and checks the answer.
func (s *inproc) firstReply(ctx context.Context, seed uint64) error {
	v := reqVal(seed, 0, setupSeq)
	s.sent[0]++
	r, err := s.cls[0].SendCtx(ctx, core.Msg{Op: core.OpWork, Seq: setupSeq, Val: v})
	if err != nil {
		return fmt.Errorf("first request: %w", err)
	}
	if r.Seq != setupSeq || r.Val != transform(v) {
		return fmt.Errorf("first reply seq %d val %v, want seq %d val %v", r.Seq, r.Val, setupSeq, transform(v))
	}
	return nil
}

// loopTally is one client's closed-loop result for one phase.
type loopTally struct {
	rtt    hist
	msgs   int64
	ontime int64
	bad    int64
	err    error
}

// closedLoop keeps one request in flight until stop rises (or, when
// traced, the span buffer fills). send is the program call under test.
func closedLoop(c int, seed uint64, base int32, stop *atomic.Bool, tr *traceBuf, t *loopTally,
	send func(m core.Msg) (core.Msg, error)) {
	dl := deadline.Nanoseconds()
	for i := int32(0); !stop.Load(); i++ {
		seq := base + i
		e := tr.slot(int32(c), seq)
		if tr != nil && e == nil {
			return // span buffer full
		}
		v := reqVal(seed, c, seq)
		t0 := mono()
		r, err := send(core.Msg{Op: core.OpWork, Seq: seq, Val: v})
		t1 := mono()
		if err != nil {
			t.err = err
			return
		}
		if r.Op != core.OpWork || r.Seq != seq || r.Val != transform(v) {
			t.bad++
		}
		if e != nil {
			e.due, e.send, e.ret = t0, t0, t1
			tr.n[c] = int(i) + 1
		}
		t.rtt.add(t1 - t0)
		t.msgs++
		if t1-t0 <= dl {
			t.ontime++
		}
	}
}

// phase runs every client's closed loop for d (or until a traced
// buffer fills) and returns the merged tally and the window.
func (s *inproc) phase(ctx context.Context, seed uint64, base int32, d time.Duration, tr *traceBuf) (loopTally, window) {
	var stop atomic.Bool
	tallies := make([]loopTally, len(s.cls))
	var wg sync.WaitGroup
	var w window
	w.open(s.ms.Total)
	for i, cl := range s.cls {
		wg.Add(1)
		go func(i int, cl *core.Client) {
			defer wg.Done()
			closedLoop(i, seed, base, &stop, tr, &tallies[i], func(m core.Msg) (core.Msg, error) {
				s.sent[i]++
				return cl.SendCtx(ctx, m)
			})
		}(i, cl)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-time.After(d):
	case <-done:
	}
	stop.Store(true)
	<-done
	w.close(s.ms.Total)
	var all loopTally
	for i := range tallies {
		t := &tallies[i]
		all.rtt.merge(&t.rtt)
		all.msgs += t.msgs
		all.ontime += t.ontime
		all.bad += t.bad
		if t.err != nil && all.err == nil {
			all.err = fmt.Errorf("client %d: %w", i, t.err)
		}
	}
	return all, w
}

// audit checks the quiescent system's wake tokens: at most one on
// every channel.
func (s *inproc) audit(ck *checks) {
	time.Sleep(20 * time.Millisecond) // let the server settle into its wait
	ck.check(s.sys.ReceiveChannel().SemCount() <= 1, "receive channel holds %d wake tokens", s.sys.ReceiveChannel().SemCount())
	for i := range s.cls {
		n := s.sys.ReplyChannel(i).SemCount()
		ck.check(n <= 1, "reply channel %d holds %d wake tokens", i, n)
	}
}

// auditServed checks, after teardown, that the server saw every
// request each client sent exactly once in total.
func (s *inproc) auditServed(ck *checks) {
	ck.fail(s.badSrv, "server saw %d requests with an invalid client", s.badSrv)
	for i := range s.cls {
		ck.check(s.served[i] == s.sent[i], "client %d sent %d requests, server served %d", i, s.sent[i], s.served[i])
	}
}

// startInproc builds a system and takes it to its first reply,
// returning the set-up time.
func startInproc(ctx context.Context, sp inprocSpec, tr *traceBuf, seed uint64) (*inproc, float64, error) {
	t0 := mono()
	s, err := buildInproc(ctx, sp, tr)
	if err != nil {
		return nil, 0, err
	}
	if err := s.firstReply(ctx, seed); err != nil {
		s.close(ctx)
		return nil, 0, err
	}
	return s, float64(mono()-t0) / 1e9, nil
}

func runInproc(rc *runCfg, sp inprocSpec, ck *checks) (*outcome, error) {
	ctx, cancel := context.WithTimeout(context.Background(), rc.watchdog())
	defer cancel()
	out := newOutcome()
	var tr *traceBuf
	if rc.trace {
		tr = newTraceBuf(sp.clients)
	}
	var tri trials
	var rtt hist
	for k := 0; k < trialsPerRun; k++ {
		last := k == trialsPerRun-1
		for r := 0; r < extraSetups; r++ {
			s, dt, err := startInproc(ctx, sp, nil, rc.seed)
			if err != nil {
				return nil, err
			}
			tri.setups = append(tri.setups, dt)
			if err := s.close(ctx); err != nil {
				return nil, err
			}
			s.auditServed(ck)
		}
		s, dt, err := startInproc(ctx, sp, tr, rc.seed)
		if err != nil {
			return nil, err
		}
		tri.setups = append(tri.setups, dt)
		if err := s.trial(ctx, rc, ck, out, &tri, &rtt, last); err != nil {
			s.close(ctx)
			return nil, err
		}
		s.audit(ck)
		if err := s.close(ctx); err != nil {
			ck.fail(1, "teardown: %v", err)
		}
		s.auditServed(ck)
	}
	tri.report(out)
	out.dists["rtt"] = rtt.dist()
	out.e2e["peak_rss_mb"] = peakRSSMiB()
	if rc.trace {
		return out, finishTrace(rc, out, tr, out.e2e["rtt_p50_us"])
	}
	return out, nil
}

// trial warms the system up, measures one untraced window and, on the
// last trial of a traced run, the traced phase.
func (s *inproc) trial(ctx context.Context, rc *runCfg, ck *checks, out *outcome, tri *trials, rtt *hist, last bool) error {
	warm, _ := s.phase(ctx, rc.seed, warmBase, warmup, nil)
	ck.fail(warm.bad, "warm-up: %d replies did not match their requests", warm.bad)
	if warm.err != nil {
		return fmt.Errorf("warm-up: %w", warm.err)
	}
	runtime.GC() // start the window with the set-up garbage collected
	m, w := s.phase(ctx, rc.seed, 0, rc.perTrial(), nil)
	ck.fail(m.bad, "%d replies did not match their requests", m.bad)
	if m.err != nil {
		return m.err
	}
	out.attempted += m.msgs
	rtt.merge(&m.rtt)
	tri.add(closedTrial(&m.rtt, m.ontime, m.msgs, w.secs(), float64(w.cpu1-w.cpu0), 8))
	if !last || !rc.trace {
		return nil
	}
	t, tw := s.phase(ctx, rc.seed, traceBase, rc.measure(), s.tr) // ends when the span buffer fills
	ck.fail(t.bad, "traced: %d replies did not match their requests", t.bad)
	if t.err != nil {
		return fmt.Errorf("traced phase: %w", t.err)
	}
	out.attempted += t.msgs
	layerCounters(out, countersOf(tw.m1).minus(countersOf(tw.m0)), t.msgs, t.msgs)
	var snaps []core.TunerSnapshot
	for _, ts := range s.sys.TunerSnapshots() {
		snaps = append(snaps, ts)
	}
	out.layer["core.tuner_budget"] = meanBudget(snaps)
	return nil
}
