package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"
	"time"

	"ulipc/internal/core"
	"ulipc/internal/livebind"
	"ulipc/internal/metrics"
	"ulipc/internal/shm"
)

// The xproc-zc workload: the server runs in the benchmark process, one
// client in a child process (this binary re-executed with
// PERFBENCH_ROLE=xclient), over a memfd segment with a payload arena.
// Each request carries a 1 KiB payload from a seeded pattern; the
// server's work callback rewrites it in place with a seeded XOR key and
// the client verifies all 1024 bytes of every reply.
//
// The child tells the parent where its phases start and end by writing
// one byte per edge on an event pipe (fd 4), so the parent reads its
// own CPU time and the server's counters at the same edges, and sends
// its report as gob on stdout when it exits.

const (
	roleEnv   = "PERFBENCH_ROLE"
	xcfgEnv   = "PERFBENCH_XCFG"
	paySize   = 1024
	payWords  = paySize / 8
	patterns  = 16
	segFD     = 3
	eventsFD  = 4
	evMeasure = 'M'
	evEnd     = 'E'
	evTrace   = 'T'
	evTraceUp = 'U'
)

// payloadKit is the seeded payload input: request patterns and the
// server's rewrite key.
type payloadKit struct {
	seed uint64
	pats [patterns][payWords]uint64
	key  [payWords]uint64
}

func newPayloadKit(seed uint64) *payloadKit {
	k := &payloadKit{seed: seed}
	x := splitmix64(seed ^ 0xC0FFEE)
	for p := range k.pats {
		for i := range k.pats[p] {
			x = splitmix64(x)
			k.pats[p][i] = x
		}
	}
	for i := range k.key {
		x = splitmix64(x)
		k.key[i] = x
	}
	return k
}

func (k *payloadKit) mix(seq int32) uint64 { return splitmix64(k.seed ^ uint64(uint32(seq))<<20) }

// fill writes request seq's pattern into b.
func (k *payloadKit) fill(b []byte, seq int32) {
	p := &k.pats[uint32(seq)%patterns]
	for i, w := range p {
		binary.LittleEndian.PutUint64(b[8*i:], w)
	}
}

// rewrite is the server's in-place transform.
func (k *payloadKit) rewrite(b []byte, seq int32) {
	m := k.mix(seq)
	for i, kw := range k.key {
		binary.LittleEndian.PutUint64(b[8*i:], binary.LittleEndian.Uint64(b[8*i:])^kw^m)
	}
}

// verify reports whether b is request seq's pattern after rewrite.
func (k *payloadKit) verify(b []byte, seq int32) bool {
	if len(b) != paySize {
		return false
	}
	p := &k.pats[uint32(seq)%patterns]
	m := k.mix(seq)
	for i, kw := range k.key {
		if binary.LittleEndian.Uint64(b[8*i:]) != p[i]^kw^m {
			return false
		}
	}
	return true
}

// xcfg is the parent-to-child configuration.
type xcfg struct {
	Seed      uint64 `json:"seed"`
	SetupOnly bool   `json:"setup_only"`
	WarmNs    int64  `json:"warm_ns"`
	MeasureNs int64  `json:"measure_ns"`
	Trace     bool   `json:"trace"`
	WatchNs   int64  `json:"watch_ns"`
}

// xreport is the child's report. Histograms travel as bucket counts.
type xreport struct {
	First             int64 // mono time of the first reply
	Sent              int64
	Bad               int64
	Err               string
	RTT               []int64
	Msgs, Ontime      int64
	CPUNs, WinNs      int64
	TMsgs             int64
	TCounters         counters
	TraceSend         []int64 // traced requests' send and return stamps
	TraceRet          []int64
	MaxRSSMiB, Budget float64
}

func histFromCounts(c []int64) *hist {
	h := &hist{}
	for i, v := range c {
		h.counts[i] = v
		h.n += v
	}
	return h
}

// xclientMain is the child process: attach, connect, run the phases,
// report. It returns the process exit code.
func xclientMain() int {
	var rep xreport
	emit := func() int {
		if err := gob.NewEncoder(os.Stdout).Encode(&rep); err != nil {
			fmt.Fprintln(os.Stderr, "xclient: report:", err)
			return 1
		}
		return 0
	}
	var cfg xcfg
	if err := json.Unmarshal([]byte(os.Getenv(xcfgEnv)), &cfg); err != nil {
		rep.Err = fmt.Sprintf("config: %v", err)
		return emit()
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(cfg.WatchNs))
	defer cancel()
	if err := xclient(ctx, cfg, &rep); err != nil {
		rep.Err = err.Error()
	}
	rep.MaxRSSMiB = peakRSSMiB()
	return emit()
}

func xclient(ctx context.Context, cfg xcfg, rep *xreport) error {
	seg, err := shm.MapFDSeg(segFD)
	if err != nil {
		return fmt.Errorf("map segment: %w", err)
	}
	defer seg.Close()
	events := os.NewFile(eventsFD, "events")
	defer events.Close()
	mark := func(b byte) error {
		_, err := events.Write([]byte{b})
		return err
	}
	m := &metrics.Proc{Name: "xclient"}
	cl, err := livebind.AttachProcClient(seg, 0, livebind.ProcOptions{Alg: core.BSA, SleepScale: time.Millisecond, M: m})
	if err != nil {
		return fmt.Errorf("attach client: %w", err)
	}
	defer cl.Close()
	kit := newPayloadKit(cfg.Seed)
	if _, err := cl.SendCtx(ctx, core.Msg{Op: core.OpConnect}); err != nil {
		return fmt.Errorf("connect: %w", err)
	}
	var t loopTally
	var stop atomic.Bool
	one := func(seq int32, e *edges) error {
		v := reqVal(cfg.Seed, 0, seq)
		p, err := cl.AllocPayload(paySize)
		if err != nil {
			return fmt.Errorf("alloc payload: %w", err)
		}
		kit.fill(p.Bytes(), seq)
		rep.Sent++
		t0 := mono()
		r, rp, err := cl.SendPayload(ctx, core.Msg{Op: core.OpWork, Seq: seq, Val: v}, p)
		t1 := mono()
		if err != nil {
			return fmt.Errorf("send payload: %w", err)
		}
		if r.Op != core.OpWork || r.Seq != seq || r.Val != transform(v) || rp == nil || !kit.verify(rp.Bytes(), seq) {
			t.bad++
		}
		if rp != nil {
			if err := rp.Release(); err != nil {
				return fmt.Errorf("release reply payload: %w", err)
			}
		}
		if e != nil {
			e.due, e.send, e.ret = t0, t0, t1
		}
		t.rtt.add(t1 - t0)
		t.msgs++
		if t1-t0 <= deadline.Nanoseconds() {
			t.ontime++
		}
		return nil
	}
	loop := func(base int32, d time.Duration, trace []edges) (int, error) {
		stop.Store(false)
		timer := time.AfterFunc(d, func() { stop.Store(true) })
		defer timer.Stop()
		i := 0
		for ; !stop.Load(); i++ {
			var e *edges
			if trace != nil {
				if i == len(trace) {
					break
				}
				e = &trace[i]
			}
			if err := one(base+int32(i), e); err != nil {
				return i, err
			}
		}
		return i, nil
	}

	if err := one(setupSeq, nil); err != nil {
		return fmt.Errorf("first request: %w", err)
	}
	rep.First = mono()
	if !cfg.SetupOnly {
		if _, err := loop(warmBase, time.Duration(cfg.WarmNs), nil); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		rep.Bad += t.bad
		t = loopTally{}
		if err := mark(evMeasure); err != nil {
			return fmt.Errorf("event: %w", err)
		}
		t0, c0 := mono(), cpuNs()
		if _, err := loop(0, time.Duration(cfg.MeasureNs), nil); err != nil {
			return err
		}
		rep.WinNs, rep.CPUNs = mono()-t0, cpuNs()-c0
		if err := mark(evEnd); err != nil {
			return fmt.Errorf("event: %w", err)
		}
		rep.RTT = append([]int64(nil), t.rtt.counts[:]...)
		rep.Msgs, rep.Ontime, rep.Bad = t.msgs, t.ontime, rep.Bad+t.bad
		if cfg.Trace {
			t = loopTally{}
			buf := make([]edges, traceCap)
			if err := mark(evTrace); err != nil {
				return fmt.Errorf("event: %w", err)
			}
			m0 := countersOf(m.Snapshot())
			n, err := loop(traceBase, time.Duration(cfg.MeasureNs), buf)
			rep.TCounters = countersOf(m.Snapshot()).minus(m0)
			if err := mark(evTraceUp); err != nil {
				return fmt.Errorf("event: %w", err)
			}
			if err != nil {
				return fmt.Errorf("traced phase: %w", err)
			}
			for _, e := range buf[:n] {
				rep.TraceSend = append(rep.TraceSend, e.send)
				rep.TraceRet = append(rep.TraceRet, e.ret)
			}
			rep.TMsgs, rep.Bad = t.msgs, rep.Bad+t.bad
		}
		if cl.Tuner != nil {
			rep.Budget = float64(cl.Tuner.Snapshot().Budget)
		}
	}
	if cfg.SetupOnly {
		rep.Bad = t.bad
	}
	if _, err := cl.SendCtx(ctx, core.Msg{Op: core.OpDisconnect}); err != nil {
		return fmt.Errorf("disconnect: %w", err)
	}
	return nil
}

// xserver is one segment with its attached server and child.
type xserver struct {
	seg    *shm.Seg
	memfd  *os.File
	srv    *livebind.ProcServer
	m      *metrics.Proc
	served int64 // work callback count, owned by the server goroutine
	bad    int64
	serr   error
	wg     sync.WaitGroup
	cmd    *exec.Cmd
	stdout bytes.Buffer
	events io.ReadCloser
}

func startXserver(ctx context.Context, kit *payloadKit, tr *traceBuf) (*xserver, error) {
	seg, f, err := shm.CreateMemfdSeg("perfbench", shm.SegConfig{Clients: 1, RingCap: 64, Blocks: 32})
	if err != nil {
		return nil, fmt.Errorf("create segment: %w", err)
	}
	x := &xserver{seg: seg, memfd: f, m: &metrics.Proc{Name: "xserver"}}
	x.srv, err = livebind.AttachProcServer(seg, livebind.ProcOptions{Alg: core.BSA, SleepScale: time.Millisecond, M: x.m})
	if err != nil {
		seg.Close()
		f.Close()
		return nil, fmt.Errorf("attach server: %w", err)
	}
	srv := x.srv
	work := func(m *core.Msg) {
		e := tr.slot(m.Client, m.Seq)
		if e != nil {
			e.in = mono()
		}
		x.served++
		p, err := srv.Payload(*m)
		if err != nil {
			x.bad++
			m.ClearBlock()
			return
		}
		if p.Len() != paySize {
			x.bad++
		} else {
			kit.rewrite(p.Bytes(), m.Seq)
		}
		m.AttachPayload(p)
		m.Val = transform(m.Val)
		if e != nil {
			e.out = mono()
		}
	}
	x.wg.Add(1)
	go func() {
		defer x.wg.Done()
		_, x.serr = srv.ServeCtx(ctx, work)
	}()
	return x, nil
}

// spawn starts the child client with cfg.
func (x *xserver) spawn(exe string, cfg xcfg) error {
	b, err := json.Marshal(cfg)
	if err != nil {
		return err
	}
	er, ew, err := os.Pipe()
	if err != nil {
		return fmt.Errorf("event pipe: %w", err)
	}
	x.events = er
	x.cmd = exec.Command(exe)
	x.cmd.Env = append(os.Environ(), roleEnv+"=xclient", xcfgEnv+"="+string(b))
	x.cmd.ExtraFiles = []*os.File{x.memfd, ew}
	x.cmd.Stdout = &x.stdout
	x.cmd.Stderr = os.Stderr
	err = x.cmd.Start()
	ew.Close()
	if err != nil {
		er.Close()
		return fmt.Errorf("start child: %w", err)
	}
	return nil
}

// finish waits for the child and the server loop and decodes the
// child's report.
func (x *xserver) finish() (*xreport, error) {
	werr := x.cmd.Wait()
	x.events.Close()
	x.wg.Wait()
	var rep xreport
	if err := gob.NewDecoder(&x.stdout).Decode(&rep); err != nil {
		return nil, fmt.Errorf("child report: %w (exit: %v)", err, werr)
	}
	if werr != nil {
		return &rep, fmt.Errorf("child: %w", werr)
	}
	if rep.Err != "" {
		return &rep, errors.New("child: " + rep.Err)
	}
	if x.serr != nil {
		return &rep, fmt.Errorf("server: %w", x.serr)
	}
	return &rep, nil
}

// audit checks the quiescent segment, then detaches: wake tokens
// conserved, every block back in the arena, nothing orphaned, every
// request served once.
func (x *xserver) audit(ck *checks, rep *xreport) {
	v := x.srv.Sys.View()
	for i := range v.Sems {
		n := v.Sems[i].Count.Load() &^ (1 << 31)
		ck.check(n <= 1, "segment semaphore %d holds %d wake tokens", i, n)
	}
	x.srv.Close()
	ck.check(v.Blocks.TotalFree() == int64(v.Blocks.Capacity()), "arena has %d of %d blocks free after teardown", v.Blocks.TotalFree(), v.Blocks.Capacity())
	st := x.srv.Sys.Stats()
	ck.check(st.OrphanBlocks == 0, "%d orphan blocks after teardown", st.OrphanBlocks)
	ck.fail(x.bad, "server could not claim %d request payloads", x.bad)
	if rep != nil {
		ck.check(x.served == rep.Sent, "child sent %d requests, server served %d", rep.Sent, x.served)
		ck.fail(rep.Bad, "%d replies failed verification", rep.Bad)
	}
}

func (x *xserver) close() {
	x.seg.Close()
	x.memfd.Close()
}

// xtrial runs one child through a fresh segment and server; it returns
// the set-up time and the child's report, and the parent's side of the
// measured and traced windows.
func xtrial(ctx context.Context, rc *runCfg, ck *checks, kit *payloadKit, tr *traceBuf, cfg xcfg) (float64, *xreport, *xserver, window, window, error) {
	var mw, tw window
	t0 := mono()
	x, err := startXserver(ctx, kit, tr)
	if err != nil {
		return 0, nil, nil, mw, tw, err
	}
	defer x.close()
	if err := x.spawn(rc.exe, cfg); err != nil {
		x.srv.Close()
		x.wg.Wait()
		return 0, nil, nil, mw, tw, err
	}
	snap := func() metrics.Snapshot { return x.m.Snapshot() }
	evDone := make(chan struct{})
	go func() {
		defer close(evDone)
		b := make([]byte, 1)
		for {
			if _, err := x.events.Read(b); err != nil {
				return
			}
			switch b[0] {
			case evMeasure:
				mw.open(snap)
			case evEnd:
				mw.close(snap)
			case evTrace:
				tw.open(snap)
			case evTraceUp:
				tw.close(snap)
			}
		}
	}()
	rep, err := x.finish()
	<-evDone
	x.audit(ck, rep)
	if err != nil {
		return 0, nil, nil, mw, tw, err
	}
	return float64(rep.First-t0) / 1e9, rep, x, mw, tw, nil
}

func runXproc(rc *runCfg, ck *checks) (*outcome, error) {
	ctx, cancel := context.WithTimeout(context.Background(), rc.watchdog())
	defer cancel()
	out := newOutcome()
	kit := newPayloadKit(rc.seed)
	var tr *traceBuf
	if rc.trace {
		tr = newTraceBuf(1)
	}
	cfg := xcfg{Seed: rc.seed, WarmNs: warmup.Nanoseconds(), MeasureNs: rc.perTrial().Nanoseconds(),
		WatchNs: rc.watchdog().Nanoseconds()}
	var tri trials
	var rtt hist
	var rss []float64
	for k := 0; k < trialsPerRun; k++ {
		cfg.SetupOnly, cfg.Trace = true, false
		for r := 0; r < extraSetups; r++ {
			dt, _, _, _, _, err := xtrial(ctx, rc, ck, kit, nil, cfg)
			if err != nil {
				return nil, fmt.Errorf("setup round: %w", err)
			}
			tri.setups = append(tri.setups, dt)
		}
		cfg.SetupOnly, cfg.Trace = false, rc.trace && k == trialsPerRun-1
		dt, rep, x, mw, tw, err := xtrial(ctx, rc, ck, kit, tr, cfg)
		if err != nil {
			return nil, fmt.Errorf("trial %d: %w", k, err)
		}
		tri.setups = append(tri.setups, dt)
		h := histFromCounts(rep.RTT)
		rtt.merge(h)
		out.attempted += rep.Msgs
		tri.add(closedTrial(h, rep.Ontime, rep.Msgs, float64(rep.WinNs)/1e9, float64(rep.CPUNs+mw.cpu1-mw.cpu0), paySize))
		rss = append(rss, rep.MaxRSSMiB)
		if !cfg.Trace {
			continue
		}
		out.attempted += rep.TMsgs
		for i, t := range rep.TraceSend {
			e := &tr.reqs[0][i]
			e.due, e.send, e.ret = t, t, rep.TraceRet[i]
		}
		tr.n[0] = len(rep.TraceSend)
		srvC := countersOf(tw.m1).minus(countersOf(tw.m0))
		layerCounters(out, srvC.plus(rep.TCounters), rep.TMsgs, rep.TMsgs)
		budgets := []core.TunerSnapshot{{Budget: int64(rep.Budget)}}
		if x.srv.Tuner != nil {
			budgets = append(budgets, x.srv.Tuner.Snapshot())
		}
		out.layer["core.tuner_budget"] = meanBudget(budgets)
	}
	tri.report(out)
	out.dists["rtt"] = rtt.dist()
	out.e2e["peak_rss_mb"] = peakRSSMiB() + median(rss)
	if rc.trace {
		return out, finishTrace(rc, out, tr, out.e2e["rtt_p50_us"])
	}
	return out, nil
}
