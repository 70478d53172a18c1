package livebind

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ulipc/internal/core"
	"ulipc/internal/metrics"
	"ulipc/internal/shm"
)

func testProcOptions(alg core.Algorithm) ProcOptions {
	return ProcOptions{
		Alg:            alg,
		SleepScale:     time.Millisecond,
		WaitSlice:      5 * time.Millisecond,
		HeartbeatEvery: 2 * time.Millisecond,
		SweepEvery:     5 * time.Millisecond,
		Lease:          time.Hour, // tests stage deaths explicitly
	}
}

// Full echo exchange through a segment: server + two clients, every
// message crossing lanes/pool/futex words exactly as two processes
// would (a heap segment is the same memory layout minus the mmap).
func TestProcEchoAllProtocols(t *testing.T) {
	for _, alg := range core.Algorithms() {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			seg, err := shm.NewHeapSeg(shm.SegConfig{Clients: 2, Nodes: 128, RingCap: 16})
			if err != nil {
				t.Fatal(err)
			}
			defer seg.Close()

			srv, err := AttachProcServer(seg, testProcOptions(alg))
			if err != nil {
				t.Fatal(err)
			}
			var served int64
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				served = srv.Serve(nil)
			}()

			const perClient = 200
			clients := make([]*ProcClient, 2)
			for id := range clients {
				cl, err := AttachProcClient(seg, id, testProcOptions(alg))
				if err != nil {
					t.Fatal(err)
				}
				clients[id] = cl
			}
			// Barrier after connect: without it one client can finish
			// and disconnect before the other connects, dropping the
			// server's connected count to zero and ending Serve early.
			var ready sync.WaitGroup
			ready.Add(2)
			var cwg sync.WaitGroup
			for id := 0; id < 2; id++ {
				cwg.Add(1)
				go func(id int) {
					defer cwg.Done()
					cl := clients[id]
					defer cl.Close()
					r := cl.Send(core.Msg{Op: core.OpConnect})
					ready.Done()
					if r.Op != core.OpConnect {
						t.Errorf("client %d connect reply op %d", id, r.Op)
						return
					}
					ready.Wait()
					for i := 0; i < perClient; i++ {
						m := core.Msg{Op: core.OpEcho, Seq: int32(i), Val: float64(i) * 1.5}
						r := cl.Send(m)
						if r.Seq != m.Seq || r.Val != m.Val {
							t.Errorf("client %d echo %d: got %+v", id, i, r)
							return
						}
					}
					cl.Send(core.Msg{Op: core.OpDisconnect})
				}(id)
			}
			cwg.Wait()
			wg.Wait()
			srv.Close()

			if served != 2*perClient {
				t.Fatalf("served %d, want %d", served, 2*perClient)
			}
			// No refs leaked: the pool is whole after a clean run.
			v, _ := seg.View()
			if free := v.Pool.FreeCount(); free != 128 {
				t.Fatalf("pool free %d after clean run, want 128", free)
			}
		})
	}
}

// A client parked on its reply semaphore unblocks with ErrPeerDead when
// the sweeper declares the server dead (staged here by stalling a fake
// server's heartbeat past the lease).
func TestProcServerDeathUnblocksClient(t *testing.T) {
	seg, err := shm.NewHeapSeg(shm.SegConfig{Clients: 1, Nodes: 32, RingCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	v, _ := seg.View()

	// A fake server that will never heartbeat: Pid 0 skips the pid
	// probe, so only the lease can declare it.
	v.Life[ServerSlot].State.Store(shm.LifeLive)

	opts := testProcOptions(core.BSW)
	opts.Lease = 30 * time.Millisecond
	cl, err := AttachProcClient(seg, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err = cl.SendCtx(ctx, core.Msg{Op: core.OpEcho, Seq: 1})
	if !errors.Is(err, core.ErrPeerDead) {
		t.Fatalf("SendCtx against dead server: %v, want ErrPeerDead", err)
	}
	if !cl.Sys.SegDead() {
		t.Fatal("segment not marked dead after server death")
	}
	st := cl.Sys.Stats()
	if st.PeerDeaths != 1 || st.DeadSlot != ServerSlot {
		t.Fatalf("stats %+v, want one death at slot %d", st, ServerSlot)
	}
}

// A dead client's remains are recovered: its reply lane is drained back
// to the pool, its semaphore poisoned, and the server receives one
// compensating V for the wake-up the client may have died owing.
func TestProcClientDeathRescue(t *testing.T) {
	seg, err := shm.NewHeapSeg(shm.SegConfig{Clients: 1, Nodes: 32, RingCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	v, _ := seg.View()

	opts := testProcOptions(core.BSW)
	opts.Lease = 30 * time.Millisecond
	opts.WaitSlice = 10 * time.Second // isolate the compensating-V path
	srv, err := AttachProcServer(seg, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan int64, 1)
	go func() {
		n, _ := srv.ServeCtx(ctx, nil)
		served <- n
	}()
	time.Sleep(50 * time.Millisecond) // let the server park

	// Fake client: joins, enqueues a request, dies before its V — the
	// permanently lost wake-up. The parked server cannot see it until
	// the sweeper's compensating V arrives.
	v.Life[1].State.Store(shm.LifeLive)
	ref, _ := v.Pool.Alloc()
	v.Arena().Node(ref).SetMsg(core.Msg{Op: core.OpEcho, Seq: 7, MsgMeta: core.MsgMeta{Client: 0}})
	v.ReqLane(0).TryPush(ref)
	// And one stale reply queued to it, to verify the drain.
	r2, _ := v.Pool.Alloc()
	v.ReplyLane(0).TryPush(r2)

	deadline := time.Now().Add(10 * time.Second)
	for srv.Sys.Stats().PeerDeaths == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sweeper never declared the stalled client dead")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The compensating V must wake the parked server, which processes
	// the orphan request (the reply to the dead client is dropped at
	// the refusing port).
	for {
		select {
		case n := <-served:
			t.Fatalf("ServeCtx exited early with %d", n)
		default:
		}
		st := srv.Sys.Stats()
		if st.WakeRescues == 1 && st.OrphanMsgs == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats %+v, want WakeRescues=1 OrphanMsgs=1", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Close poisons the semaphores, so the parked ServeCtx exits
	// promptly — a ctx cancel alone is only noticed at the next
	// wait-slice boundary (10s here, by construction).
	srv.Close()
	n := <-served
	cancel()
	if n != 1 {
		t.Fatalf("served %d, want the orphan request processed", n)
	}
	// Post-mortem: with everyone gone the audit makes the pool whole.
	if _, _, _, err := v.Reclaim(); err != nil {
		t.Fatal(err)
	}
	if free := v.Pool.FreeCount(); free != 32 {
		t.Fatalf("pool free %d after reclaim, want 32", free)
	}
}

// Attachment is guarded: slots cannot be claimed twice, dead or
// shut-down segments refuse new participants.
func TestProcAttachErrors(t *testing.T) {
	seg, err := shm.NewHeapSeg(shm.SegConfig{Clients: 1, Nodes: 32, RingCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()

	opts := testProcOptions(core.BSW)
	opts.NoSweep = true
	srv, err := AttachProcServer(seg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AttachProcServer(seg, opts); err == nil {
		t.Fatal("second server attach succeeded")
	}
	if _, err := AttachProcClient(seg, 5, opts); err == nil {
		t.Fatal("out-of-range client attach succeeded")
	}
	cl, err := AttachProcClient(seg, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AttachProcClient(seg, 0, opts); err == nil {
		t.Fatal("double client attach succeeded")
	}
	cl.Close()
	srv.Close() // server close → SegShutdown
	v, _ := seg.View()
	if got := v.Hdr.State.Load(); got != shm.SegShutdown {
		t.Fatalf("state %d after server close, want SegShutdown", got)
	}
	if _, err := AttachProcClient(seg, 0, opts); !errors.Is(err, core.ErrShutdown) {
		t.Fatalf("attach to shut-down segment: %v, want ErrShutdown", err)
	}
	v.Hdr.State.Store(shm.SegDead)
	if _, err := AttachProcClient(seg, 0, opts); !errors.Is(err, core.ErrPeerDead) {
		t.Fatalf("attach to dead segment: %v, want ErrPeerDead", err)
	}
}

// A cross-process BSA handle wires its controller into its actor, as
// System.newTuner does in process: while the controller backs off from
// oversubscription, the queue-full nap stretches (Tuner.NapScale).
func TestProcBSANapStretch(t *testing.T) {
	seg, err := shm.NewHeapSeg(shm.SegConfig{Clients: 1, Nodes: 16, RingCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	opts := testProcOptions(core.BSA)
	cl, err := AttachProcClient(seg, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Tuner == nil {
		t.Fatal("BSA ProcClient has no Tuner")
	}
	for i := 0; i < 10; i++ {
		cl.Tuner.Observe(0, true) // every wait slept anyway: back off
	}
	want := cl.Tuner.NapScale(opts.SleepScale)
	if want <= opts.SleepScale {
		t.Fatalf("controller not backing off: NapScale(%v) = %v", opts.SleepScale, want)
	}
	start := time.Now()
	cl.A.SleepSec(1)
	if d := time.Since(start); d < want {
		t.Fatalf("SleepSec(1) took %v, want >= %v (nap stretch not wired into the actor)", d, want)
	}
}

// The Actor's counters tick identically whichever semaphore its table
// holds: P, V, PCtx and SleepCtx over the in-process Semaphore and over
// the cross-process ProcSem.
func TestActorCountersAcrossSemaphores(t *testing.T) {
	type table struct {
		name   string
		sem    semaphore
		parked func() bool // a plain P is asleep on the semaphore
	}
	local, proc := NewSemaphore(0), newTestSem(t)
	tables := []table{
		{"Semaphore", local, func() bool { return local.Sleeping() == 1 }},
		{"ProcSem", proc, func() bool { return proc.Waiters() == 1 }},
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	cancelled, cancel2 := context.WithCancel(context.Background())
	cancel2()
	steps := []struct {
		name string
		do   func(a *Actor, parked func() bool)
		want metrics.Snapshot
	}{
		{"V without sleeper", func(a *Actor, _ func() bool) { a.V(0) },
			metrics.Snapshot{SemV: 1}},
		{"P on a token", func(a *Actor, _ func() bool) { a.P(0) },
			metrics.Snapshot{SemV: 1, SemP: 1}},
		{"P woken by V", func(a *Actor, parked func() bool) {
			done := make(chan struct{})
			go func() { a.P(0); close(done) }()
			for !parked() {
				time.Sleep(time.Millisecond)
			}
			a.V(0)
			<-done
		}, metrics.Snapshot{SemV: 2, SemP: 2, Blocks: 1, Wakeups: 1}},
		{"PCtx past deadline", func(a *Actor, _ func() bool) {
			if err := a.PCtx(expired, 0); !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("PCtx = %v, want DeadlineExceeded", err)
			}
		}, metrics.Snapshot{SemV: 2, SemP: 3, Blocks: 1, Wakeups: 1, Timeouts: 1}},
		{"PCtx parked until deadline", func(a *Actor, _ func() bool) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
			defer cancel()
			if err := a.PCtx(ctx, 0); !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("PCtx = %v, want DeadlineExceeded", err)
			}
		}, metrics.Snapshot{SemV: 2, SemP: 4, Blocks: 2, Wakeups: 1, Timeouts: 2}},
		{"PCtx cancelled", func(a *Actor, _ func() bool) {
			if err := a.PCtx(cancelled, 0); !errors.Is(err, context.Canceled) {
				t.Errorf("PCtx = %v, want Canceled", err)
			}
		}, metrics.Snapshot{SemV: 2, SemP: 5, Blocks: 2, Wakeups: 1, Timeouts: 2, Cancels: 1}},
		{"PCtx on a token", func(a *Actor, _ func() bool) {
			a.V(0)
			if err := a.PCtx(context.Background(), 0); err != nil {
				t.Errorf("PCtx = %v, want nil", err)
			}
		}, metrics.Snapshot{SemV: 3, SemP: 6, Blocks: 2, Wakeups: 1, Timeouts: 2, Cancels: 1}},
		{"SleepCtx", func(a *Actor, _ func() bool) {
			if err := a.SleepCtx(context.Background(), 1); err != nil {
				t.Errorf("SleepCtx = %v, want nil", err)
			}
			a.SleepScale = time.Hour // the cancellation must win the select
			defer func() { a.SleepScale = time.Microsecond }()
			if err := a.SleepCtx(cancelled, 1); !errors.Is(err, context.Canceled) {
				t.Errorf("SleepCtx = %v, want Canceled", err)
			}
		}, metrics.Snapshot{SemV: 3, SemP: 6, Blocks: 2, Wakeups: 1, Timeouts: 2, Cancels: 2, Sleeps: 2}},
	}
	for _, tb := range tables {
		a := &Actor{sems: []semaphore{tb.sem}, SleepScale: time.Microsecond, M: &metrics.Proc{}}
		for _, st := range steps {
			st.do(a, tb.parked)
			got := a.M.Snapshot()
			got.Name = ""
			if got != st.want {
				t.Fatalf("%s, after %s: counters %s, want %s", tb.name, st.name, actorCounters(got), actorCounters(st.want))
			}
		}
	}
}

func actorCounters(s metrics.Snapshot) string {
	return fmt.Sprintf("SemP=%d SemV=%d Blocks=%d Wakeups=%d Timeouts=%d Cancels=%d Sleeps=%d",
		s.SemP, s.SemV, s.Blocks, s.Wakeups, s.Timeouts, s.Cancels, s.Sleeps)
}
