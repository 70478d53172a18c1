package livebind

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ulipc/internal/core"
)

func TestSemaphorePCtxConsumesToken(t *testing.T) {
	s := NewSemaphore(2)
	if s.Count() != 2 {
		t.Fatalf("initial count %d, want 2", s.Count())
	}
	if slept, err := s.PCtx(context.Background()); err != nil || slept {
		t.Fatalf("PCtx on a credit = (slept %v, %v), want (false, nil)", slept, err)
	}
	if got := s.Count(); got != 1 {
		t.Fatalf("count = %d, want 1", got)
	}
	if s.P() {
		t.Fatal("P slept with a credit available")
	}
	if got := s.Count(); got != 0 {
		t.Fatalf("count %d after two credits taken, want 0", got)
	}
}

func TestSemaphorePCtxPreCancelled(t *testing.T) {
	s := NewSemaphore(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.PCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := s.Count(); got != 1 {
		t.Fatalf("a cancelled wait must not consume a token: count = %d", got)
	}
}

func TestSemaphorePCtxDeadline(t *testing.T) {
	s := NewSemaphore(0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := s.PCtx(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline not honoured: waited %v", elapsed)
	}
	if got := s.Waiters(); got != 0 {
		t.Fatalf("cancelled waiter not unlinked: waiters = %d", got)
	}
	// A V after the cancellation must not be swallowed by the dead waiter.
	s.V()
	if got := s.Count(); got != 1 {
		t.Fatalf("count = %d, want 1 after V", got)
	}
}

func TestSemaphorePCtxWokenByV(t *testing.T) {
	s := NewSemaphore(0)
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, err := s.PCtx(ctx)
		done <- err
	}()
	for s.Waiters() == 0 {
		time.Sleep(10 * time.Microsecond)
	}
	s.V()
	if err := <-done; err != nil {
		t.Fatalf("granted wait returned %v", err)
	}
	if got := s.Count(); got != 0 {
		t.Fatalf("count = %d, want 0 (token consumed by grant)", got)
	}
}

func TestSemaphoreCloseUnblocksWaiters(t *testing.T) {
	s := NewSemaphore(0)
	ctxErr := make(chan error, 1)
	plainDone := make(chan struct{})
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, err := s.PCtx(ctx)
		ctxErr <- err
	}()
	go func() {
		s.P()
		close(plainDone)
	}()
	// Close sets closed before releasing the ring, so the plain P is
	// released whether or not it has parked yet.
	for s.Waiters() < 1 {
		time.Sleep(10 * time.Microsecond)
	}
	s.Close()
	if err := <-ctxErr; !errors.Is(err, core.ErrShutdown) {
		t.Fatalf("PCtx after Close = %v, want ErrShutdown", err)
	}
	select {
	case <-plainDone:
	case <-time.After(5 * time.Second):
		t.Fatal("plain P not released by Close")
	}
	// Later calls observe the closed state without blocking; Vs are dropped.
	if _, err := s.PCtx(context.Background()); !errors.Is(err, core.ErrShutdown) {
		t.Fatalf("PCtx on closed = %v, want ErrShutdown", err)
	}
	s.V()
	if got := s.Count(); got != 0 {
		t.Fatalf("V on closed must be dropped: count = %d", got)
	}
	s.Close() // idempotent
}

// TestSemaphoreTokenConservationStress is the wake-token accounting
// invariant under -race: with waits cancelling at random around
// concurrent Vs, every issued token is either consumed by exactly one
// successful wait or still in the count at quiescence — a cancelled
// wait never swallows one.
func TestSemaphoreTokenConservationStress(t *testing.T) {
	const (
		waiters   = 8
		vTotal    = 2000
		perWaiter = 1000
	)
	s := NewSemaphore(0)
	var consumed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < waiters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perWaiter; i++ {
				// Deadlines from "already expired" to ~200µs straddle the
				// park/grant race on both sides.
				d := time.Duration(rng.Intn(200)) * time.Microsecond
				ctx, cancel := context.WithTimeout(context.Background(), d)
				_, err := s.PCtx(ctx)
				cancel()
				switch {
				case err == nil:
					consumed.Add(1)
				case errors.Is(err, context.DeadlineExceeded):
				case errors.Is(err, context.Canceled):
				default:
					t.Errorf("unexpected PCtx error: %v", err)
					return
				}
			}
		}(g)
	}
	var vg sync.WaitGroup
	vg.Add(1)
	go func() {
		defer vg.Done()
		for i := 0; i < vTotal; i++ {
			s.V()
			if i%64 == 0 {
				time.Sleep(time.Microsecond)
			}
		}
	}()
	vg.Wait()
	wg.Wait()
	if got := s.Waiters(); got != 0 {
		t.Fatalf("waiters = %d at quiescence", got)
	}
	if got, want := consumed.Load()+s.Count(), int64(vTotal); got != want {
		t.Fatalf("token conservation violated: consumed %d + count %d = %d, want %d",
			consumed.Load(), s.Count(), got, want)
	}
}

// TestSemaphorePCtxCancelVRaceExactlyOnce races a PCtx cancellation
// against a concurrent V over many rounds and checks the wake token is
// conserved exactly in every interleaving: either the waiter consumed
// it (returns nil, count stays 0) or the cancelled waiter handed it
// back exactly once (returns ctx.Err(), count is exactly 1). A lost
// token would strand the next sleeper forever; a doubled one would
// admit a consumer with no message. Run under -race.
func TestSemaphorePCtxCancelVRaceExactlyOnce(t *testing.T) {
	testPCtxCancelVRaceExactlyOnce(t, NewSemaphore)
}

// TestWaitArrayPCtxCancelVRaceExactlyOnce runs the same race through
// the deprecated NewWaitArraySemaphore constructor, which perfbench
// still calls, so the alias keeps the exactly-once guarantee.
func TestWaitArrayPCtxCancelVRaceExactlyOnce(t *testing.T) {
	testPCtxCancelVRaceExactlyOnce(t, NewWaitArraySemaphore)
}

func testPCtxCancelVRaceExactlyOnce(t *testing.T, newSem func(int64) *Semaphore) {
	t.Helper()
	for i := 0; i < 500; i++ {
		s := newSem(0)
		ctx, cancel := context.WithCancel(context.Background())
		res := make(chan error, 1)
		go func() {
			_, err := s.PCtx(ctx)
			res <- err
		}()
		for s.Waiters() == 0 { // waiter parked before the race starts
			runtime.Gosched()
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); cancel() }()
		go func() { defer wg.Done(); s.V() }()
		wg.Wait()

		err := <-res
		if count := s.Count(); err == nil {
			if count != 0 {
				t.Fatalf("round %d: token consumed but count = %d (duplicated)", i, count)
			}
		} else {
			if err != context.Canceled {
				t.Fatalf("round %d: PCtx = %v, want nil or context.Canceled", i, err)
			}
			if count != 1 {
				t.Fatalf("round %d: cancelled wait left count = %d, want exactly 1 handed back", i, count)
			}
		}
		if w := s.Waiters(); w != 0 {
			t.Fatalf("round %d: %d waiters leaked", i, w)
		}
	}
}

func TestSemaphorePVConservation(t *testing.T) {
	s := NewSemaphore(0)
	const waiters, tokens = 8, 8
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.P()
		}()
	}
	for s.Sleeping() != waiters {
		runtime.Gosched()
	}
	for i := 0; i < tokens; i++ {
		if !s.V() {
			t.Error("V with parked waiters woke nobody")
		}
	}
	wg.Wait()
	if c := s.Count(); c != 0 {
		t.Fatalf("count %d after balanced P/V, want 0", c)
	}
}

// A cancelled waiter's hand-back must prefer a still-parked waiter over
// the count: the token moves along the array, not through it.
func TestSemaphoreHandBackGrantsNextWaiter(t *testing.T) {
	for i := 0; i < 200; i++ {
		s := NewSemaphore(0)
		ctx, cancel := context.WithCancel(context.Background())
		first := make(chan error, 1)
		go func() {
			_, err := s.PCtx(ctx)
			first <- err
		}()
		for s.Waiters() == 0 {
			runtime.Gosched()
		}
		second := make(chan error, 1)
		go func() {
			_, err := s.PCtx(context.Background())
			second <- err
		}()
		for s.Waiters() != 2 {
			runtime.Gosched()
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); cancel() }()
		go func() { defer wg.Done(); s.V() }()
		wg.Wait()

		err1 := <-first
		if err1 == nil {
			// First waiter won the grant; feed the second one.
			s.V()
		}
		if err2 := <-second; err2 != nil {
			t.Fatalf("round %d: uncancelled second waiter failed: %v", i, err2)
		}
		if c := s.Count(); c != 0 {
			t.Fatalf("round %d: count %d after all waits settled, want 0", i, c)
		}
	}
}

// FIFO: tokens are granted in park order.
func TestSemaphoreFIFOGrant(t *testing.T) {
	s := NewSemaphore(0)
	const n = 6
	order := make(chan int, n)
	for i := 0; i < n; i++ {
		i := i
		go func() {
			s.P()
			order <- i
		}()
		// Park strictly one at a time so array order equals loop order.
		for s.Sleeping() != int64(i+1) {
			runtime.Gosched()
		}
	}
	for i := 0; i < n; i++ {
		s.V()
		if got := <-order; got != i {
			t.Fatalf("grant %d went to waiter %d, want FIFO", i, got)
		}
	}
}

// A cancel storm with no V traffic must not leak ring slots: the hole
// compaction keeps the array bounded and a subsequent P/V pair still
// pairs up correctly.
func TestSemaphoreCancelStorm(t *testing.T) {
	s := NewSemaphore(0)
	for round := 0; round < 50; round++ {
		var wg sync.WaitGroup
		const parked = 16
		ctx, cancel := context.WithCancel(context.Background())
		for i := 0; i < parked; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := s.PCtx(ctx); err != context.Canceled {
					t.Errorf("storm wait: %v, want context.Canceled", err)
				}
			}()
		}
		for s.Waiters() != parked {
			runtime.Gosched()
		}
		cancel()
		wg.Wait()
		if w := s.Waiters(); w != 0 {
			t.Fatalf("round %d: %d waiters leaked", round, w)
		}
		if c := s.Count(); c != 0 {
			t.Fatalf("round %d: count %d minted by cancellations", round, c)
		}
	}
	// The array still works after the storms.
	done := make(chan struct{})
	go func() { s.P(); close(done) }()
	for s.Sleeping() == 0 {
		runtime.Gosched()
	}
	s.V()
	<-done
}

func TestSemaphoreCloseUnblocks(t *testing.T) {
	s := NewSemaphore(0)
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	wg.Add(2)
	go func() { defer wg.Done(); _, err := s.PCtx(context.Background()); errs <- err }()
	go func() { defer wg.Done(); _, err := s.PCtx(context.Background()); errs <- err }()
	for s.Waiters() != 2 {
		runtime.Gosched()
	}
	plain := make(chan bool, 1)
	go func() { plain <- s.P() }()
	for s.Sleeping() == 0 {
		runtime.Gosched()
	}
	s.Close()
	wg.Wait()
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, core.ErrShutdown) {
			t.Fatalf("closed PCtx returned %v, want ErrShutdown", err)
		}
	}
	if !<-plain {
		t.Fatal("parked plain P unblocked by Close must report it slept")
	}
	if _, err := s.PCtx(context.Background()); !errors.Is(err, core.ErrShutdown) {
		t.Fatalf("post-close PCtx returned %v", err)
	}
	if s.V() {
		t.Fatal("V on closed semaphore woke someone")
	}
}

// Mixed concurrent P/PCtx traffic against V producers with rolling
// cancellations: every token is either acquired or handed back, so
// issued Vs minus successful acquisitions must equal the final count.
// Run under -race.
func TestSemaphoreMixedStress(t *testing.T) {
	s := NewSemaphore(0)
	const consumers, rounds = 8, 250
	var acquired, issued int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < consumers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				ctx, cancel := context.WithCancel(context.Background())
				if (i+j)%3 == 0 {
					go func() { runtime.Gosched(); cancel() }()
				}
				_, err := s.PCtx(ctx)
				cancel()
				if err == nil {
					mu.Lock()
					acquired++
					mu.Unlock()
				}
			}
		}(i)
	}
	// Feed tokens until every consumer settles; cancelled waits consume
	// none, so the feeder may overshoot — that surplus must sit on the
	// count, not vanish.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for feeding := true; feeding; {
		select {
		case <-done:
			feeding = false
		default:
			s.V()
			mu.Lock()
			issued++
			mu.Unlock()
			runtime.Gosched()
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if c := s.Count(); c != issued-acquired {
		t.Fatalf("count %d, want issued(%d) - acquired(%d) = %d", c, issued, acquired, issued-acquired)
	}
	if w := s.Waiters(); w != 0 {
		t.Fatalf("%d waiters leaked", w)
	}
}

// The ring must give back its consumed prefix while waiters keep
// overlapping: eight goroutines loop on P, and V is issued only once at
// least two are parked, so the ring never empties. Without reclamation
// the dead prefix ring[:head] is carried along by every append and the
// slice grows with the number of grants, not the number of waiters.
func TestSemaphoreRingReclaimsConsumedPrefix(t *testing.T) {
	const waiters, grants = 8, 20000
	s := NewSemaphore(0)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				s.P()
			}
		}()
	}
	peakParked, peakRing := 0, 0
	for i := 0; i < grants; i++ {
		for s.Sleeping() < 2 {
			runtime.Gosched()
		}
		s.mu.Lock()
		peakParked = max(peakParked, s.nplain)
		peakRing = max(peakRing, len(s.ring))
		s.mu.Unlock()
		s.V()
	}
	stop.Store(true)
	s.Close()
	wg.Wait()
	if peakRing > 4*peakParked {
		t.Fatalf("ring length peaked at %d over %d grants, want <= 4x the %d peak parked waiters",
			peakRing, grants, peakParked)
	}
}

// A parked PCtx round trip allocates nothing: the hand-off slot and its
// channel come from the semaphore's pool, not from the park. Two
// goroutines ping-pong over a pair of semaphores, so nearly every PCtx
// parks; the context is cancellable, so the select path is the one
// measured.
func TestSemaphorePCtxParkAllocsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random")
	}
	ping, pong := NewSemaphore(0), NewSemaphore(0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, err := ping.PCtx(ctx); err != nil {
				return
			}
			pong.V()
		}
	}()
	roundTrip := func() {
		ping.V()
		if _, err := pong.PCtx(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ { // fill the slot pools
		roundTrip()
	}
	allocs := testing.AllocsPerRun(2000, roundTrip)
	ping.Close()
	<-done
	if allocs != 0 {
		t.Fatalf("parked PCtx round trip allocates %v times, want 0", allocs)
	}
}

// semPingPong bounces one token between two goroutines over a pair of
// semaphores, so nearly every wait parks and every V is a direct
// hand-off; one op is one round trip (two parks, two wake-ups).
func semPingPong(b *testing.B, wait func(s *Semaphore)) {
	ping, pong := NewSemaphore(0), NewSemaphore(0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			wait(ping)
			if ping.Closed() {
				return
			}
			pong.V()
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ping.V()
		wait(pong)
	}
	b.StopTimer()
	ping.Close()
	<-done
}

// BenchmarkSemaphorePingPong is the legacy protocols' plain-P park.
func BenchmarkSemaphorePingPong(b *testing.B) {
	semPingPong(b, func(s *Semaphore) { s.P() })
}

// BenchmarkSemaphorePCtxPingPong is the v2 surface's cancellable park.
func BenchmarkSemaphorePCtxPingPong(b *testing.B) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	semPingPong(b, func(s *Semaphore) { s.PCtx(ctx) })
}
