package livebind

import (
	"context"
	"sync"

	"ulipc/internal/core"
)

// Semaphore is a counting semaphore with System V semantics: P blocks
// while the count is zero; V increments the count or wakes one waiter.
// Like the kernel primitive, V never yields the caller.
//
// It is a semaphore augmented with a waiting array: every waiter —
// plain P or cancellable PCtx — parks on its own hand-off slot in one
// FIFO ring, and V pops the oldest live slot and hands the token
// DIRECTLY to that waiter (one channel send, one goroutine made
// runnable, no herd racing for the count), skipping and recycling
// cancelled holes as it walks. Cancel marks the waiter's own slot in
// place, O(1), leaving a hole for V or the compactor to absorb.
//
// Token conservation: a token is either in the count or in exactly one
// granted slot, a cancelled wait never consumes one, and a waiter
// cancelled after being granted hands its token back — to the next
// live slot, else to the count. This is the property the protocol
// layer's wake-token accounting (core.consumerWaitCtx) builds on, and
// the one internal/protomodel's WArrayCheck verifies exhaustively.
//
// Slots are pooled: a slot is signalled at most once per park, and it
// returns to the pool only after that signal has been received (or it
// was never signalled), so a grant from a previous life can never leak
// into the next waiter's park, and a park allocates nothing in steady
// state.
type Semaphore struct {
	mu     sync.Mutex
	count  int64
	closed bool
	ring   []*waSlot // ring[head:] is the FIFO of parked waiters
	head   int
	holes  int // cancelled slots still inside ring[head:]
	npctx  int // parked cancellable waiters (Waiters())
	nplain int // parked plain-P waiters (Sleeping())
	pool   sync.Pool
}

// waSlot states, guarded by the owning Semaphore's mutex.
const (
	waWaiting   int8 = iota // parked, in the ring
	waGranted               // V/hand-back delivered a token
	waCancelled             // waiter gave up; slot is a hole in the ring
	waClosed                // Close released the waiter without a token
)

// waSlot is one parked waiter's private hand-off cell. State
// transitions happen under the semaphore lock before the one send on
// the channel, so a waiter that receives can trust the state it then
// reads. The channel has capacity 1, so the send never blocks: V makes
// it after releasing the lock, Close while holding it.
type waSlot struct {
	ch    chan struct{}
	state int8
	pctx  bool // cancellable (PCtx) waiter, for the diagnostics split
}

// NewSemaphore creates a semaphore with the given initial count.
func NewSemaphore(initial int64) *Semaphore {
	return &Semaphore{count: initial}
}

// NewWaitArraySemaphore is NewSemaphore.
//
// Deprecated: every Semaphore is a waiting array; use NewSemaphore.
func NewWaitArraySemaphore(initial int64) *Semaphore { return NewSemaphore(initial) }

// P (down) decrements the count, blocking while it is zero. On a closed
// semaphore P returns immediately without consuming a token, so parked
// protocol loops unblock and observe the port state. The return value
// reports whether the call actually slept (parked at least once) — the
// paper's "fell through to the blocking path" distinction, surfaced so
// the binding can attribute sleep time without extra clock reads on the
// non-blocking path.
func (s *Semaphore) P() (slept bool) {
	slept, _ = s.wait(context.Background(), false)
	return slept
}

// PCtx is P with cancellation. It returns nil when a token was
// consumed; ctx.Err() when the wait was cancelled without consuming a
// token (a token granted concurrently with the cancellation is handed
// back); and core.ErrShutdown when the semaphore was closed. Like P,
// slept reports whether the call actually parked.
func (s *Semaphore) PCtx(ctx context.Context) (slept bool, err error) {
	return s.wait(ctx, true)
}

// wait is the one park path behind P and PCtx: take a token from the
// count, else park a slot and wait for a direct hand-off, Close, or
// (only when ctx can be cancelled) the cancellation. pctx tags the slot
// for the Waiters/Sleeping split.
func (s *Semaphore) wait(ctx context.Context, pctx bool) (slept bool, err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false, core.ErrShutdown
	}
	if err := ctx.Err(); err != nil {
		s.mu.Unlock()
		return false, err
	}
	if s.count > 0 {
		s.count--
		s.mu.Unlock()
		return false, nil
	}
	w := s.getSlot(pctx)
	s.pushLocked(w)
	s.mu.Unlock()

	if done := ctx.Done(); done == nil {
		<-w.ch
	} else {
		select {
		case <-w.ch:
		case <-done:
			s.cancel(w)
			return true, ctx.Err()
		}
	}
	// The send happened after the state was set, so the state is ours
	// to read without the lock.
	closed := w.state == waClosed
	s.pool.Put(w)
	if closed {
		return true, core.ErrShutdown
	}
	return true, nil
}

// cancel resolves a parked wait whose context ended. A grant that raced
// the cancellation is handed back so the token is never lost.
func (s *Semaphore) cancel(w *waSlot) {
	s.mu.Lock()
	if w.state == waWaiting {
		// Still parked: become a hole. The slot stays in the ring until
		// V, Close or the compactor absorbs it.
		s.cancelLocked(w)
		s.mu.Unlock()
		return
	}
	// A V, hand-back or Close won the race and pulled the slot from the
	// ring. A grant's token is re-issued; a close carried none.
	var next *waSlot
	if w.state == waGranted {
		next = s.grantLocked()
	}
	s.mu.Unlock()
	if next != nil {
		next.ch <- struct{}{}
	}
	<-w.ch // the winner's send is committed; take it before recycling
	s.pool.Put(w)
}

// V (up) hands a token directly to the oldest live waiter, or
// increments the count when nobody is parked. Vs on a closed semaphore
// are dropped (every waiter has already been released and no new ones
// arrive). The return value reports whether the V woke a sleeper (the
// paper's "expensive wake-up system call" as opposed to a redundant V).
func (s *Semaphore) V() (woke bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	w := s.grantLocked()
	s.mu.Unlock()
	if w == nil {
		return false
	}
	w.ch <- struct{}{} // outside the lock: the wake-up does not lengthen it
	return true
}

// grantLocked delivers one token: to the oldest live waiter, whose slot
// it returns for the caller to signal once s.mu is released, else to the
// count (nil). Caller holds s.mu.
func (s *Semaphore) grantLocked() *waSlot {
	if w := s.popLocked(); w != nil {
		w.state = waGranted
		return w
	}
	s.count++
	return nil
}

// Close releases every parked waiter without granting tokens and makes
// all subsequent P calls non-blocking (PCtx returns core.ErrShutdown).
// Idempotent.
func (s *Semaphore) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for w := s.popLocked(); w != nil; w = s.popLocked() {
		w.state = waClosed
		w.ch <- struct{}{}
	}
}

// getSlot takes a slot from the pool (or allocates) and resets it for a
// fresh park.
func (s *Semaphore) getSlot(pctx bool) *waSlot {
	if v := s.pool.Get(); v != nil {
		w := v.(*waSlot)
		w.state = waWaiting
		w.pctx = pctx
		return w
	}
	return &waSlot{ch: make(chan struct{}, 1), pctx: pctx}
}

// pushLocked appends a parked waiter; caller holds s.mu.
func (s *Semaphore) pushLocked(w *waSlot) {
	s.ring = append(s.ring, w)
	if w.pctx {
		s.npctx++
	} else {
		s.nplain++
	}
}

// popLocked removes and returns the oldest live waiter, absorbing (and
// recycling) cancelled holes on the way. Returns nil if no live waiter
// is parked. Caller holds s.mu.
//
// Once the consumed prefix ring[:head] is at least half the slice, the
// active region is copied down to the front. Each copy moves at most
// head slots, each paid for by one pop, so the cost stays amortised
// O(1) and the ring stays under twice its active region however long
// waiters keep overlapping.
func (s *Semaphore) popLocked() *waSlot {
	for s.head < len(s.ring) {
		w := s.ring[s.head]
		s.ring[s.head] = nil
		s.head++
		if s.head == len(s.ring) {
			// The common one-waiter case: nothing to move or clear.
			s.ring, s.head = s.ring[:0], 0
		} else if 2*s.head >= len(s.ring) {
			n := copy(s.ring, s.ring[s.head:])
			clear(s.ring[n:])
			s.ring, s.head = s.ring[:n], 0
		}
		if w.state == waCancelled {
			s.holes--
			s.pool.Put(w) // a hole was never signalled
			continue
		}
		if w.pctx {
			s.npctx--
		} else {
			s.nplain--
		}
		return w
	}
	return nil
}

// cancelLocked turns a parked waiter's slot into a hole in place, O(1).
// When holes dominate the active region the ring is compacted, keeping
// the amortised cost constant even under cancel storms with no V
// traffic to absorb the holes. Caller holds s.mu.
func (s *Semaphore) cancelLocked(w *waSlot) {
	w.state = waCancelled
	s.holes++
	if w.pctx {
		s.npctx--
	} else {
		s.nplain--
	}
	if s.holes > 16 && s.holes*2 > len(s.ring)-s.head {
		s.compactLocked()
	}
}

// compactLocked rewrites the ring with only live waiters, recycling the
// holes. Caller holds s.mu. The in-place copy is safe: the write index
// never overtakes the read index.
func (s *Semaphore) compactLocked() {
	live := s.ring[:0]
	for _, w := range s.ring[s.head:] {
		if w.state == waCancelled {
			s.holes--
			s.pool.Put(w) // a hole was never signalled
			continue
		}
		live = append(live, w)
	}
	clear(s.ring[len(live):])
	s.ring = live
	s.head = 0
}

// Closed reports whether the semaphore has been closed (diagnostics).
func (s *Semaphore) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Count returns the current count (diagnostics).
func (s *Semaphore) Count() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Waiters returns the number of parked cancellable waiters (diagnostics
// and tests).
func (s *Semaphore) Waiters() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.npctx
}

// Sleeping returns the number of plain P calls currently parked
// (diagnostics; the recovery sweeper's lost-wake heuristic needs to
// know whether anyone is actually asleep on the semaphore).
func (s *Semaphore) Sleeping() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(s.nplain)
}
