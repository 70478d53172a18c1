package workload

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"ulipc/internal/core"
	"ulipc/internal/livebind"
	"ulipc/internal/metrics"
	"ulipc/internal/obs"
	"ulipc/internal/queue"
)

// The cell harness and auditor (DESIGN.md §15). Every in-process runner
// — the closed-loop live cells, the server group, the worker pool, the
// chaos cells and the open-loop generator — runs one cell with the same
// lifecycle: a watchdog root context, a bounded error list, the
// first-request start stamp, clients joined before servers, Shutdown,
// the flight-recorder dump when the watchdog trips, and one auditor
// after teardown. A runner keeps only its topology and its client body.

// errList is the bounded failure list every runner keeps (the
// simulator's recorder too): the first eight failures, in order.
type errList struct {
	mu   sync.Mutex
	errs []string
}

func (e *errList) noteErr(format string, args ...any) {
	e.mu.Lock()
	if len(e.errs) < 8 {
		e.errs = append(e.errs, fmt.Sprintf(format, args...))
	}
	e.mu.Unlock()
}

// Teardown bounds: how long a join waits past the watchdog, and how
// long Shutdown may spend draining the request queues.
const (
	joinGrace     = 5 * time.Second
	shutdownGrace = 5 * time.Second
)

// auditOwner is the lease tag the auditor claims teardown leftovers
// under, next to the sweeper's tag and far above the actor-id owners.
const auditOwner = ^uint32(0) - 2

// cell is one run's harness state.
type cell struct {
	errList
	sys     *livebind.System
	ms      *metrics.Set
	alg     core.Algorithm
	clients int

	// ctx is the watchdog root (Background without a watchdog); the
	// harness cancels it only after the servers have been released.
	ctx      context.Context
	cancel   context.CancelFunc
	watchdog time.Duration
	dump     io.Writer // mirrors the flight-recorder dump when set

	// lenient tolerates a Shutdown drain that times out: chaos cells
	// kill participants, whose stranded requests may outlive the drain.
	lenient bool

	// store claim-frees the leases teardown leftovers carry; nil uses
	// the system's arena directly.
	store core.BlockStore

	startOnce   sync.Once
	start       time.Time
	end         time.Time // set by a server loop that times its own exit
	clientsDone time.Time

	cwg, swg sync.WaitGroup // client and server goroutines

	tripped     bool   // the watchdog fired, or a join outlived its grace
	flight      string // flight-recorder dump taken when tripped
	poolLeaked  int64  // node refs missing after the audit
	blockLeaked int64  // payload blocks missing after the audit
}

func newCell(sys *livebind.System, alg core.Algorithm, clients int, watchdog time.Duration) *cell {
	c := &cell{sys: sys, ms: sys.Metrics(), alg: alg, clients: clients, watchdog: watchdog}
	c.ctx, c.cancel = context.Background(), func() {}
	if watchdog > 0 {
		c.ctx, c.cancel = context.WithTimeout(context.Background(), watchdog)
	}
	return c
}

// noteStart stamps the first request of the measured interval.
func (c *cell) noteStart() { c.startOnce.Do(func() { c.start = time.Now() }) }

// server and client start a participant goroutine.
func (c *cell) server(body func()) { spawn(&c.swg, body) }
func (c *cell) client(body func()) { spawn(&c.cwg, body) }

func spawn(wg *sync.WaitGroup, body func()) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		body()
	}()
}

// join waits for wg, bounded by the watchdog plus a grace when the cell
// has one: a participant still blocked after that is a hard hang even
// the context could not break.
func (c *cell) join(wg *sync.WaitGroup, limit time.Duration, hang string) {
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	if c.watchdog <= 0 {
		<-done
		return
	}
	select {
	case <-done:
	case <-time.After(limit):
		c.tripped = true
		c.noteErr("%s", hang)
	}
}

// joinClients waits for every client and closes the measured interval.
// A tripped watchdog captures the flight recorder: the ring holds the
// last events before the stall, the interleaving a post-mortem needs.
func (c *cell) joinClients() {
	c.join(&c.cwg, c.watchdog+joinGrace, "clients still blocked past watchdog+grace")
	c.clientsDone = time.Now()
	if c.ctx.Err() != nil {
		c.tripped = true
	}
	if c.tripped {
		var buf strings.Builder
		out := io.Writer(&buf)
		if c.dump != nil {
			out = io.MultiWriter(&buf, c.dump)
		}
		c.sys.DumpFlightRecorder(out)
		c.flight = buf.String()
	}
}

// teardown shuts the system down, joins the servers and audits. The
// servers exit on the shutdown marker; the root context is cancelled
// only if Shutdown failed to release them (a premature cancel turns a
// clean exit into a spurious context error). A tripped cell shuts down
// under its expired context, discarding the stranded requests at once.
func (c *cell) teardown() {
	ctx, stop := context.WithTimeout(context.Background(), shutdownGrace)
	if c.tripped {
		ctx = c.ctx
	}
	if err := c.sys.Shutdown(ctx); err != nil {
		if !c.tripped && !(c.lenient && errors.Is(err, context.DeadlineExceeded)) {
			c.noteErr("shutdown: %v", err)
		}
		c.cancel()
	}
	stop()
	c.join(&c.swg, joinGrace, "servers still blocked after shutdown")
	c.cancel()
	c.audit()
}

// audit is the one auditor every cell runs after teardown. It drains
// what teardown left queued, claim-freeing the payload leases riding
// it, then checks conservation: every two-lock channel's node pool
// holds its capacity again (the +1 of the pool is the queue's resident
// dummy), and every arena block — heap-overflow blocks included — is
// back. A tripped cell skips the checks: its stranded participants
// legitimately hold nodes and leases.
func (c *cell) audit() {
	pool := c.sys.Blocks()
	store := c.store
	if store == nil && pool != nil {
		store = pool
	}
	chans := make([]*livebind.Channel, 0, 1+c.clients)
	if c.sys.Shards() > 0 {
		for sh := 0; sh < c.sys.Shards(); sh++ {
			chans = append(chans, c.sys.ShardChannel(sh))
		}
	} else {
		chans = append(chans, c.sys.ReceiveChannel())
	}
	for i := 0; i < c.clients; i++ {
		chans = append(chans, c.sys.ReplyChannel(i))
	}
	for _, ch := range chans {
		queue.DrainFunc(ch.Queue(), func(m core.Msg) {
			if store == nil || !m.HasBlock() {
				return
			}
			if ref, _ := m.Block(); store.Claim(ref, auditOwner) {
				_ = store.Free(ref)
			}
		})
		if tl, ok := ch.Queue().(*queue.TwoLock); ok {
			c.poolLeaked += int64(tl.Cap()) - tl.Pool().FreeCount()
		}
	}
	if pool != nil {
		c.blockLeaked = int64(pool.Capacity()) - pool.TotalFree() + c.sys.FallbackLive()
	}
	if c.tripped {
		return
	}
	if c.poolLeaked != 0 {
		c.noteErr("pool leak: %d refs unaccounted for", c.poolLeaked)
	}
	if c.blockLeaked != 0 {
		c.noteErr("payload leak: %d blocks unaccounted for", c.blockLeaked)
	}
}

// result fills the fields every closed-loop cell reports: served
// messages over the interval from the first request to the server's
// exit (or, for runners whose servers outlive the clients, the clients'
// exit), plus the counters and the phase histograms.
func (c *cell) result(label string, served int64, msgs int) Result {
	end := c.end
	if end.IsZero() {
		end = c.clientsDone
	}
	start := c.start
	if start.IsZero() {
		start = end
	}
	dur := end.Sub(start)
	if dur <= 0 {
		dur = time.Nanosecond
	}
	res := Result{
		Label:      label,
		Throughput: float64(served) / (float64(dur.Nanoseconds()) / 1e6),
		RTTMicros:  float64(dur.Nanoseconds()) / 1e3 / float64(msgs),
		Duration:   dur.Nanoseconds(),
		TotalMsgs:  served,
		Clients:    c.ms.ByPrefix("client"),
		All:        c.ms.Total(),
		Phase:      phaseSnap(c.sys.Observer(), c.alg),
		FlightDump: c.flight,
	}
	if s, ok := c.ms.Find("server"); ok {
		res.Server = s
	}
	return res
}

// err folds the error list into the runner's error (nil when clean).
func (c *cell) err(what string) error {
	if len(c.errs) == 0 {
		return nil
	}
	return fmt.Errorf("workload: %s: %v", what, c.errs)
}

// phaseSnap extracts the phase-histogram snapshot for the benchmarked
// protocol (nil without an observer).
func phaseSnap(o *obs.Observer, alg core.Algorithm) *obs.ProtoSnapshot {
	if o == nil {
		return nil
	}
	p := o.Proto(int(alg))
	if p == nil {
		return nil
	}
	s := p.Snapshot(alg.String())
	return &s
}

// handles builds n participant handles up front, so a construction
// error returns before any goroutine starts.
func handles[T any](n int, get func(int) (T, error)) ([]T, error) {
	out := make([]T, n)
	for i := range out {
		var err error
		if out[i], err = get(i); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// blockSlots sizes a payload cell's arena: room for every client to
// hold a request and a reply block with headroom for in-flight ones,
// 4*(clients+1) slots per class, minimum 32; override wins when set.
// Cells without payloads get no arena.
func blockSlots(paySize, clients, override int) int {
	switch {
	case paySize <= 0:
		return 0
	case override > 0:
		return override
	}
	return max(4*(clients+1), 32)
}

// payWork is the payload server's work callback (nil for header-only
// cells): claim the request's lease and re-attach it to the reply —
// zero-copy — or, with copyEcho, pay the copy baseline's re-allocation
// and memcpy. A lost claim (the sender died and the sweeper reclaimed
// the block) clears the reference instead of forwarding it.
func payWork(srv *core.Server, paySize int, copyEcho bool) func(*core.Msg) {
	if paySize <= 0 {
		return nil
	}
	return func(m *core.Msg) {
		p, err := srv.Payload(*m)
		if err != nil {
			m.ClearBlock()
			return
		}
		if copyEcho {
			if q, err := srv.AllocPayload(p.Len()); err == nil {
				copy(q.Bytes(), p.Bytes())
				_ = p.Release()
				p = q
			}
		}
		m.AttachPayload(p)
	}
}

// deadlineShed is the shed policy of the open-loop cells: the absolute
// deadline rides in Val (nanoseconds since the run epoch now reads), and
// only the stamped request ops carry one — control traffic
// (connect/disconnect, shutdown markers) is never shed.
func deadlineShed(now func() int64) *core.ShedPolicy {
	return &core.ShedPolicy{
		Deadline: func(m core.Msg) (int64, bool) {
			if m.Op != core.OpEcho && m.Op != core.OpWork {
				return 0, false
			}
			return int64(m.Val), true
		},
		Now: now,
	}
}

// echoed is the scalar echo check: the reply to request j carries j
// back in both Seq and Val.
func echoed(ans core.Msg, j int) bool {
	return ans.Seq == int32(j) && ans.Val == float64(j)
}

// echoBatch fills msgs with the k echo requests starting at sequence
// base.
func echoBatch(msgs []core.Msg, base, k int) []core.Msg {
	msgs = msgs[:0]
	for q := base; q < base+k; q++ {
		msgs = append(msgs, core.Msg{Op: core.OpEcho, Seq: int32(q), Val: float64(q)})
	}
	return msgs
}

// checkBatch is the per-batch multiset check of the vectored cells:
// stolen work may be answered by any shard and replies may interleave,
// but a client's batch must come back as exactly its own sequence
// numbers base..base+k-1, each once and each echoed. seen is the
// caller's scratch (at least k long), reused so the check allocates
// nothing on the timed path.
func checkBatch(out []core.Msg, client int32, base, k int, seen []bool) error {
	if len(out) != k {
		return fmt.Errorf("%d replies, want %d", len(out), k)
	}
	seen = seen[:k]
	clear(seen)
	for _, m := range out {
		i := int(m.Seq) - base
		if m.Client != client || i < 0 || i >= k || m.Val != float64(m.Seq) {
			return fmt.Errorf("bad reply %+v", m)
		}
		if seen[i] {
			return fmt.Errorf("duplicate reply %+v", m)
		}
		seen[i] = true
	}
	return nil
}
