package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"time"

	"ulipc/internal/core"
	"ulipc/internal/livebind"
	"ulipc/internal/obs"
	"ulipc/internal/queue"
	"ulipc/internal/shm"
)

// Unit-cost probes of the traced run: each times one public call of a
// layer in isolation on this host, so a per-message cost in the
// end-to-end numbers can be set against the price of its parts (the
// paper's Table 1). A pair probe reports the median over probeReps
// batches of the mean ns per operation; a wake probe reports the
// distribution of single hand-offs.

const (
	probeReps  = 5
	probeOps   = 200_000
	wakeRounds = 2000
	probeMsgs  = 32 // queue depth the pair probes run at
)

// perOp is the median over probeReps of the mean ns per call of fn,
// which runs n calls.
func perOp(n int, fn func(n int)) float64 {
	xs := make([]float64, probeReps)
	for r := range xs {
		t0 := mono()
		fn(n)
		xs[r] = float64(mono()-t0) / float64(n)
	}
	return median(xs)
}

// queuePair times one Enqueue+Dequeue pair with probeMsgs already
// queued, so neither end runs on an empty or full queue.
func queuePair(enq func(core.Msg) bool, deq func() (core.Msg, bool)) (float64, error) {
	m := core.Msg{Op: core.OpWork}
	for i := 0; i < probeMsgs; i++ {
		if !enq(m) {
			return 0, fmt.Errorf("queue full at %d", i)
		}
	}
	lost := 0
	ns := perOp(probeOps, func(n int) {
		for i := 0; i < n; i++ {
			enq(m)
			if _, ok := deq(); !ok {
				lost++
			}
		}
	})
	if lost > 0 {
		return 0, fmt.Errorf("%d dequeues found the queue empty", lost)
	}
	return ns, nil
}

func runProbes(rc *runCfg, out *outcome) error {
	l := out.layer
	for _, k := range []struct {
		name string
		kind queue.Kind
	}{{"queue.twolock_pair_ns", queue.KindTwoLock}, {"queue.ring_pair_ns", queue.KindRing}, {"queue.lockfree_pair_ns", queue.KindLockFree}} {
		q, err := queue.New(k.kind, 64)
		if err != nil {
			return err
		}
		if l[k.name], err = queuePair(q.Enqueue, q.Dequeue); err != nil {
			return fmt.Errorf("%s: %w", k.name, err)
		}
	}
	spsc, err := queue.NewSPSC(64)
	if err != nil {
		return err
	}
	if l["queue.spsc_pair_ns"], err = queuePair(spsc.Enqueue, spsc.Dequeue); err != nil {
		return fmt.Errorf("spsc: %w", err)
	}
	lanes, err := newLanes(2)
	if err != nil {
		return err
	}
	if l["queue.lanes_pair_ns"], err = queuePair(lanes.Lane(0).Enqueue, lanes.Dequeue); err != nil {
		return fmt.Errorf("lanes: %w", err)
	}
	if l["queue.twolock_pair_2p_ns"], err = twoProducers(); err != nil {
		return fmt.Errorf("two-lock, two producers: %w", err)
	}

	seg, err := shm.NewHeapSeg(shm.SegConfig{Clients: 1, RingCap: 64})
	if err != nil {
		return err
	}
	v, err := seg.View()
	if err != nil {
		return err
	}
	lane := v.ReqLane(0)
	push := func(core.Msg) bool { return lane.TryPush(1) }
	pop := func() (core.Msg, bool) { _, ok := lane.TryPop(); return core.Msg{}, ok }
	if l["shm.lane_pair_ns"], err = queuePair(push, pop); err != nil {
		return fmt.Errorf("shm lane: %w", err)
	}
	pool, err := shm.NewDefaultBlockPool(32)
	if err != nil {
		return err
	}
	var allocErr error
	l["shm.block_alloc_free_ns"] = perOp(probeOps, func(n int) {
		for i := 0; i < n; i++ {
			r, _, ok := pool.Alloc(paySize)
			if !ok {
				allocErr = shm.ErrBadGeometry
				return
			}
			if err := pool.Free(r); err != nil {
				allocErr = err
				return
			}
		}
	})
	if allocErr != nil {
		return fmt.Errorf("block alloc/free: %w", allocErr)
	}
	src, dst := make([]byte, 1024), make([]byte, 1024)
	l["shm.memcpy_ns_per_kib"] = perOp(probeOps, func(n int) {
		for i := 0; i < n; i++ {
			src[i&1023] = byte(i)
			copy(dst, src)
		}
	})

	for name, s := range map[string]*livebind.Semaphore{
		"livebind.sem_pv_ns":    livebind.NewSemaphore(0),
		"livebind.warray_pv_ns": livebind.NewWaitArraySemaphore(0),
	} {
		l[name] = perOp(probeOps, func(n int) {
			for i := 0; i < n; i++ {
				s.V()
				s.P()
			}
		})
	}
	l["livebind.gosched_ns"] = perOp(probeOps, func(n int) {
		for i := 0; i < n; i++ {
			runtime.Gosched()
		}
	})
	var h obs.Histogram
	l["obs.record_ns"] = perOp(probeOps, func(n int) {
		for i := 0; i < n; i++ {
			h.Record(time.Duration(i & 0xffff))
		}
	})

	cw := condWake()
	out.dists["probe.cond_wake"] = cw
	l["livebind.cond_wake_us.p50"], l["livebind.cond_wake_us.p99"] = cw.P50us, cw.P99us
	fw, err := futexWake(rc.exe)
	if err != nil {
		return fmt.Errorf("futex wake: %w", err)
	}
	out.dists["probe.futex_wake"] = fw
	l["livebind.futex_wake_us.p50"], l["livebind.futex_wake_us.p99"] = fw.P50us, fw.P99us
	return nil
}

func newLanes(n int) (*queue.Lanes, error) {
	rings := make([]*queue.SPSC, n)
	for i := range rings {
		var err error
		if rings[i], err = queue.NewSPSC(64); err != nil {
			return nil, err
		}
	}
	return queue.NewLanes(rings)
}

// twoProducers times Enqueue+Dequeue pairs by two goroutines sharing
// one two-lock queue: the mean pair as each goroutine sees it.
func twoProducers() (float64, error) {
	q, err := queue.New(queue.KindTwoLock, 64)
	if err != nil {
		return 0, err
	}
	var lost [2]int
	ns := perOp(probeOps, func(n int) {
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				m := core.Msg{Op: core.OpWork}
				for i := 0; i < n; i++ {
					q.Enqueue(m)
					if _, ok := q.Dequeue(); !ok {
						lost[g]++
					}
				}
			}(g)
		}
		wg.Wait()
	})
	if lost[0]+lost[1] > 0 {
		return 0, fmt.Errorf("%d dequeues found the queue empty", lost[0]+lost[1])
	}
	return ns, nil
}

// settle is how long a waker lets a parked waiter sit before V, so the
// wake-up is taken from a real sleep.
const settle = 50 * time.Microsecond

// condWake times the cond-semaphore hand-off: V on this goroutine until
// a P parked on another goroutine returns. Rounds whose P did not
// actually sleep are not counted.
func condWake() dist {
	a, ack := livebind.NewSemaphore(0), livebind.NewSemaphore(0)
	woke := make([]int64, wakeRounds)
	slept := make([]bool, wakeRounds)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range woke {
			slept[i] = a.P()
			woke[i] = mono()
			ack.V()
		}
	}()
	var h hist
	vs := make([]int64, wakeRounds)
	for i := range vs {
		for a.Sleeping() == 0 {
			runtime.Gosched()
		}
		time.Sleep(settle)
		vs[i] = mono()
		a.V()
		ack.P()
	}
	<-done
	for i := range vs {
		if slept[i] {
			h.add(woke[i] - vs[i])
		}
	}
	return h.dist()
}

// futexReport is the futex peer's stamps of each wake.
type futexReport struct {
	Woke  []int64
	Slept []bool
	Err   string
}

// futexWake times the ProcSem hand-off across two processes: this
// process Vs a semaphore in a memfd segment that a child process is
// parked on, and the child stamps its return on the shared clock.
func futexWake(exe string) (dist, error) {
	seg, f, err := shm.CreateMemfdSeg("perfbench-futex", shm.SegConfig{Clients: 1, RingCap: 2})
	if err != nil {
		return dist{}, fmt.Errorf("segment: %w", err)
	}
	defer seg.Close()
	defer f.Close()
	v, err := seg.View()
	if err != nil {
		return dist{}, err
	}
	a, ack := livebind.NewProcSem(&v.Sems[0], 0), livebind.NewProcSem(&v.Sems[1], 0)
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), roleEnv+"=futexpeer")
	cmd.ExtraFiles = []*os.File{f}
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Start(); err != nil {
		return dist{}, fmt.Errorf("start peer: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	vs := make([]int64, wakeRounds)
	for i := range vs {
		for a.Waiters() == 0 && ctx.Err() == nil {
			runtime.Gosched()
		}
		time.Sleep(settle)
		vs[i] = mono()
		a.V()
		if _, err := ack.PCtx(ctx); err != nil {
			_ = cmd.Process.Kill() // the peer is stuck or gone; Wait reaps it
			_ = cmd.Wait()
			return dist{}, fmt.Errorf("round %d: %w", i, err)
		}
	}
	werr := cmd.Wait()
	var rep futexReport
	if err := gob.NewDecoder(&stdout).Decode(&rep); err != nil {
		return dist{}, fmt.Errorf("peer report: %w (exit: %v)", err, werr)
	}
	if rep.Err != "" || werr != nil || len(rep.Woke) != wakeRounds {
		return dist{}, fmt.Errorf("peer: %s %v (%d rounds)", rep.Err, werr, len(rep.Woke))
	}
	var h hist
	for i := range vs {
		if rep.Slept[i] {
			h.add(rep.Woke[i] - vs[i])
		}
	}
	return h.dist(), nil
}

// futexPeerMain is the child side of futexWake.
func futexPeerMain() int {
	var rep futexReport
	seg, err := shm.MapFDSeg(segFD)
	if err != nil {
		rep.Err = err.Error()
	} else {
		defer seg.Close()
		v, err := seg.View()
		if err != nil {
			rep.Err = err.Error()
		} else {
			a, ack := livebind.NewProcSem(&v.Sems[0], 0), livebind.NewProcSem(&v.Sems[1], 0)
			for i := 0; i < wakeRounds; i++ {
				s := a.P()
				rep.Woke = append(rep.Woke, mono())
				rep.Slept = append(rep.Slept, s)
				ack.V()
			}
		}
	}
	if err := gob.NewEncoder(os.Stdout).Encode(&rep); err != nil {
		return 1
	}
	return 0
}
