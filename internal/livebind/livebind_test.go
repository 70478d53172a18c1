package livebind

import (
	"sync"
	"testing"
	"time"

	"ulipc/internal/core"
	"ulipc/internal/metrics"
	"ulipc/internal/queue"
	"ulipc/internal/shm"
)

func TestSemaphorePendingV(t *testing.T) {
	s := NewSemaphore(0)
	s.V() // V before P must remain pending (counting semantics)
	done := make(chan struct{})
	go func() {
		s.P()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("P blocked despite a pending V")
	}
	if s.Count() != 0 {
		t.Fatalf("count = %d", s.Count())
	}
}

func TestSemaphoreBlocksUntilV(t *testing.T) {
	s := NewSemaphore(0)
	released := make(chan struct{})
	go func() {
		s.P()
		close(released)
	}()
	select {
	case <-released:
		t.Fatal("P returned without a V")
	case <-time.After(20 * time.Millisecond):
	}
	s.V()
	select {
	case <-released:
	case <-time.After(2 * time.Second):
		t.Fatal("V did not release the waiter")
	}
}

func TestSemaphoreCountingUnderConcurrency(t *testing.T) {
	s := NewSemaphore(0)
	const n = 200
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.P()
		}()
	}
	for i := 0; i < n; i++ {
		s.V()
	}
	doneCh := make(chan struct{})
	go func() { wg.Wait(); close(doneCh) }()
	select {
	case <-doneCh:
	case <-time.After(5 * time.Second):
		t.Fatal("waiters not all released")
	}
	if s.Count() != 0 {
		t.Fatalf("count = %d", s.Count())
	}
}

func TestChannelAwakeTAS(t *testing.T) {
	c, err := NewChannel(queue.KindTwoLock, 8)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPort(c)
	if !p.TASAwake() {
		t.Fatal("initial awake must be true")
	}
	p.SetAwake(false)
	if p.TASAwake() {
		t.Fatal("TAS after clear must return false")
	}
	if !p.TASAwake() {
		t.Fatal("second TAS must return true")
	}
}

func TestPortQueueOps(t *testing.T) {
	c, err := NewChannel(queue.KindRing, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPort(c)
	if !p.Empty() {
		t.Fatal("fresh channel not empty")
	}
	if !p.TryEnqueue(core.Msg{Seq: 1}) {
		t.Fatal("enqueue failed")
	}
	if p.Empty() {
		t.Fatal("queue with message reports empty")
	}
	m, ok := p.TryDequeue()
	if !ok || m.Seq != 1 {
		t.Fatalf("dequeue: %+v %v", m, ok)
	}
}

func TestSystemValidation(t *testing.T) {
	if _, err := NewSystem(Options{Clients: 0}); err == nil {
		t.Error("zero clients accepted")
	}
	sys, err := NewSystem(Options{Clients: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Client(-1); err == nil {
		t.Error("negative client index accepted")
	}
	if _, err := sys.Client(2); err == nil {
		t.Error("out-of-range client index accepted")
	}
	if _, err := sys.Client(1); err != nil {
		t.Errorf("valid client index rejected: %v", err)
	}
}

// TestSemaphoreBounded verifies the Figure 4 claim end-to-end on the
// live runtime: with the TAS fixes in place, no reply semaphore
// accumulates pending wake-ups across a multi-client run.
func TestSemaphoreBounded(t *testing.T) {
	const clients = 4
	sys, err := NewSystem(Options{Alg: core.BSW, Clients: clients})
	if err != nil {
		t.Fatal(err)
	}
	srv := sys.Server()
	done := make(chan struct{})
	go func() { srv.Serve(nil); close(done) }()

	// All clients must be connected before any disconnects, or Serve
	// (which exits when the connected count returns to zero) can end
	// early — the same reason the paper's methodology barriers after
	// connecting.
	var barrier sync.WaitGroup
	barrier.Add(clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		cl, err := sys.Client(i)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(cl *core.Client) {
			defer wg.Done()
			cl.Send(core.Msg{Op: core.OpConnect})
			barrier.Done()
			barrier.Wait()
			for j := 0; j < 500; j++ {
				cl.Send(core.Msg{Op: core.OpEcho, Seq: int32(j)})
			}
			cl.Send(core.Msg{Op: core.OpDisconnect})
		}(cl)
	}
	wg.Wait()
	<-done

	if c := sys.ReceiveChannel().SemCount(); c > 1 {
		t.Errorf("server semaphore accumulated: %d", c)
	}
	for i := 0; i < clients; i++ {
		if c := sys.ReplyChannel(i).SemCount(); c > 1 {
			t.Errorf("client %d semaphore accumulated: %d", i, c)
		}
	}
}

type actorFlavour struct {
	name string
	a    *Actor
}

// actorFlavours returns the Actor as each transport builds it: the
// zero-value in-process actor (runtime.Gosched) and the one the
// cross-process attach path builds over a segment's futex semaphores
// (sched_yield). Tests set the tuning fields they exercise on both.
func actorFlavours(t *testing.T) []actorFlavour {
	t.Helper()
	seg, err := shm.NewHeapSeg(shm.SegConfig{Clients: 1, Nodes: 16, RingCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seg.Close() })
	sys, err := attachProc(seg, ServerSlot, ProcOptions{NoSweep: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	xa := sys.newActor()
	if !xa.xproc || len(xa.sems) != len(sys.sems) {
		t.Fatalf("cross-process actor: xproc=%v sems=%d, want true/%d", xa.xproc, len(xa.sems), len(sys.sems))
	}
	return []actorFlavour{{"inproc", &Actor{}}, {"xproc", xa}}
}

func TestActorSleepScale(t *testing.T) {
	for _, f := range actorFlavours(t) {
		a := f.a
		a.SleepScale = time.Microsecond
		start := time.Now()
		a.SleepSec(1)
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Fatalf("%s: scaled sleep took %v", f.name, d)
		}
	}
}

func TestActorSpinFlavour(t *testing.T) {
	for _, f := range actorFlavours(t) {
		a := f.a
		a.SpinIters = 100
		a.BusyWait() // must not yield/panic; just burn cycles
		a.PollDelay()
		if a.spinSink == 0 {
			t.Fatalf("%s: spin did not run", f.name)
		}
	}
}

func TestActorHandoffDegradesToYield(t *testing.T) {
	for _, f := range actorFlavours(t) {
		a := f.a
		a.M = &metrics.Proc{}
		a.Handoff(5) // must not panic; degrades to Gosched / sched_yield
		if y := a.M.Yields.Load(); y != 1 {
			t.Fatalf("%s: Handoff counted %d yields, want 1", f.name, y)
		}
	}
}

func TestSystemMetricsNames(t *testing.T) {
	sys, err := NewSystem(Options{Clients: 2})
	if err != nil {
		t.Fatal(err)
	}
	sys.Server()
	if _, err := sys.Client(0); err != nil {
		t.Fatal(err)
	}
	if _, ok := sys.Metrics().Find("server"); !ok {
		t.Error("server metrics missing")
	}
	if _, ok := sys.Metrics().Find("client0"); !ok {
		t.Error("client0 metrics missing")
	}
}
