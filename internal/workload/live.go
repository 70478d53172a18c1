package workload

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ulipc/internal/core"
	"ulipc/internal/livebind"
	"ulipc/internal/metrics"
	"ulipc/internal/obs"
	"ulipc/internal/queue"
)

// LiveConfig describes a live (real goroutine) benchmark run.
type LiveConfig struct {
	Alg       core.Algorithm
	Clients   int
	Msgs      int
	MaxSpin   int
	QueueCap  int
	QueueKind queue.Kind
	SpinIters int // >0: multiprocessor busy_wait flavour
	Throttle  int

	// ReplyKind selects the reply-queue implementation. Unlike the
	// library default (SPSC), a nil ReplyKind here follows QueueKind, so
	// experiment sweeps over queue kinds (ablation A2) keep comparing
	// the same implementation on both legs of the round trip. Point it
	// at queue.KindSPSC to measure the reply fast path.
	ReplyKind *queue.Kind

	// AllocBatch enables producer-side allocation batching (see
	// livebind.Options.AllocBatch).
	AllocBatch int

	// SleepScale compresses the queue-full sleep(1) so tests and benches
	// don't stall for wall-clock seconds; defaults to 1ms per "second".
	SleepScale time.Duration

	// Watchdog, when positive, runs the workload on the context-threaded
	// paths (SendCtx/ServeCtx) under a deadline: if any participant is
	// still blocked past it — a deadlocked cell — the run shuts the
	// system down, reports partial results and returns an error instead
	// of hanging forever. Zero keeps the legacy error-less fast path.
	Watchdog time.Duration

	// Observe attaches phase-latency histograms to the run: the Result's
	// Phase field then reports RTT/queue-wait/spin/sleep distributions
	// for the cell's protocol. Off by default so legacy callers keep the
	// uninstrumented fast path.
	Observe bool

	// RecorderCap, when positive (and Observe is set), additionally
	// attaches a flight recorder holding the most recent RecorderCap IPC
	// events.
	RecorderCap int

	// DumpOnWatchdog, when non-nil, receives a flight-recorder dump if
	// the watchdog deadline trips — the last events before the stall.
	// Requires Observe and RecorderCap.
	DumpOnWatchdog io.Writer

	// Shards, when > 0, runs the cell against a server group of that
	// many shards (livebind.Options.Shards): per-client SPSC request
	// lanes, client-side shard selection, bounded work stealing, and
	// the vectored SendBatch/ServeBatch paths. QueueKind, ReplyKind and
	// Throttle do not apply in group mode (the lane mesh is
	// structurally SPSC).
	Shards int

	// Batch is the vectored transfer size in group mode (messages per
	// SendBatch / per ServeBatch receive buffer); default 16.
	Batch int

	// NoSteal disables inter-shard work stealing in group mode.
	NoSteal bool

	// Picker selects the client-side shard policy in group mode; nil
	// defaults to hash pinning.
	Picker livebind.ShardPicker

	// PaySize, when > 0, attaches a payload of that many bytes to every
	// request (and its echo): the system is built with a slab arena and
	// clients exchange leased blocks instead of bare 24-byte messages.
	// Payload cells always run the context-threaded paths (SendPayload
	// is context-based), so a zero Watchdog gets a generous default.
	// Not supported in group mode (the vectored batch paths move
	// fixed-size messages only).
	PaySize int

	// PayCopy selects the copy-in/copy-out baseline for the A/B axis:
	// the client copies bytes through a private scratch buffer on both
	// legs and the server re-allocates and copies the echo, so every
	// round trip pays the memcpys zero-copy elides.
	PayCopy bool

	// Blocks overrides the arena slot count; default 4*(Clients+1),
	// minimum 32.
	Blocks int
}

// tuneFor zeroes the hand-tuned knobs when alg is BSA: the controller
// owns the spin budget and the backoff, and NewSystem rejects the
// combination with ErrBadTuning.
func tuneFor(alg core.Algorithm, maxSpin, throttle int) (int, int) {
	if alg == core.BSA {
		return 0, 0
	}
	return maxSpin, throttle
}

// RunLive executes the client/server workload on the live runtime and
// returns wall-clock results. With cfg.Watchdog set it runs the
// context-threaded variant (see LiveConfig.Watchdog).
func RunLive(cfg LiveConfig) (Result, error) {
	if cfg.Clients < 1 {
		return Result{}, fmt.Errorf("workload: need at least 1 client")
	}
	if cfg.Msgs < 1 {
		return Result{}, fmt.Errorf("workload: need at least 1 message")
	}
	if cfg.SleepScale == 0 {
		cfg.SleepScale = time.Millisecond
	}
	if cfg.PaySize > 0 {
		if cfg.Shards > 0 {
			return Result{}, fmt.Errorf("workload: payload cells not supported in group mode")
		}
		if cfg.Watchdog <= 0 {
			cfg.Watchdog = 2 * time.Minute
		}
	}
	replyKind := cfg.QueueKind
	if cfg.ReplyKind != nil {
		replyKind = *cfg.ReplyKind
	}
	maxSpin, throttle := tuneFor(cfg.Alg, cfg.MaxSpin, cfg.Throttle)
	var observer *obs.Observer
	if cfg.Observe {
		observer = obs.New(obs.Config{RecorderCap: cfg.RecorderCap})
		if cfg.RecorderCap > 0 {
			// Post-mortem on demand: SIGQUIT dumps the ring (and the
			// histogram exposition) to stderr while the cell runs,
			// mirroring the Go runtime's own dump-on-SIGQUIT.
			stop := observer.DumpOnSignal(syscall.SIGQUIT)
			defer stop()
		}
	}
	opts := livebind.Options{
		Alg:        cfg.Alg,
		MaxSpin:    maxSpin,
		Clients:    cfg.Clients,
		QueueCap:   cfg.QueueCap,
		AllocBatch: cfg.AllocBatch,
		SpinIters:  cfg.SpinIters,
		SleepScale: cfg.SleepScale,
		Metrics:    metrics.NewSet(),
		Observer:   observer,
	}
	if cfg.Shards > 0 {
		opts.NoSteal, opts.Picker = cfg.NoSteal, cfg.Picker
		sys, err := livebind.NewSystemGroup(cfg.Shards, opts)
		if err != nil {
			return Result{}, err
		}
		return runLiveGroup(cfg, sys)
	}
	opts.QueueKind, opts.Throttle = cfg.QueueKind, throttle
	opts.BlockSlots = blockSlots(cfg.PaySize, cfg.Clients, cfg.Blocks)
	sys, err := livebind.NewSystem(opts, livebind.WithReplyKind(replyKind))
	if err != nil {
		return Result{}, err
	}
	srv := sys.Server()
	cls, err := handles(cfg.Clients, sys.Client)
	if err != nil {
		return Result{}, err
	}
	c := newCell(sys, cfg.Alg, cfg.Clients, cfg.Watchdog)
	c.dump = cfg.DumpOnWatchdog
	var served int64
	c.server(func() {
		if cfg.Watchdog > 0 {
			n, err := srv.ServeCtx(c.ctx, payWork(srv, cfg.PaySize, cfg.PayCopy))
			if err != nil {
				c.noteErr("server: %v", err)
			}
			served = n
		} else {
			served = srv.Serve(nil)
		}
		c.end = time.Now()
	})
	var barrier sync.WaitGroup
	barrier.Add(cfg.Clients)
	for i, cl := range cls {
		c.client(func() {
			if cfg.Watchdog > 0 {
				liveClientCtx(c, cfg, i, cl, &barrier)
			} else {
				liveClient(c, cfg, i, cl, &barrier)
			}
		})
	}
	c.joinClients()
	c.teardown()

	label := fmt.Sprintf("live/%s/%dc", cfg.Alg, cfg.Clients)
	if cfg.PaySize > 0 {
		mode := "zc"
		if cfg.PayCopy {
			mode = "copy"
		}
		label = fmt.Sprintf("%s/p%d/%s", label, cfg.PaySize, mode)
	}
	res := c.result(label, served, cfg.Msgs)
	if cfg.PaySize > 0 {
		res.PaySize, res.PayCopy = cfg.PaySize, cfg.PayCopy
		res.BytesPerSec = float64(served*2*int64(cfg.PaySize)) / (float64(res.Duration) / 1e9)
	}
	if total := int64(cfg.Clients * cfg.Msgs); served != total {
		c.noteErr("server served %d, want %d", served, total)
	}
	return res, c.err("live validation failed")
}

// liveClient is the legacy (error-less) closed-loop client: connect,
// barrier, cfg.Msgs timed echoes, disconnect.
func liveClient(c *cell, cfg LiveConfig, i int, cl *core.Client, barrier *sync.WaitGroup) {
	if ans := cl.Send(core.Msg{Op: core.OpConnect}); ans.Op != core.OpConnect {
		c.noteErr("client%d: bad connect reply %+v", i, ans)
	}
	barrier.Done()
	barrier.Wait()
	c.noteStart()
	for j := 0; j < cfg.Msgs; j++ {
		if ans := cl.Send(core.Msg{Op: core.OpEcho, Seq: int32(j), Val: float64(j)}); !echoed(ans, j) {
			c.noteErr("client%d: reply mismatch at %d: %+v", i, j, ans)
		}
	}
	cl.Send(core.Msg{Op: core.OpDisconnect})
	livebind.DrainPort(cl.Srv)
}

// liveClientCtx is the watchdog variant: the same script on the
// context-threaded paths, so a deadlocked cell trips the deadline
// instead of hanging, with payload echoes when cfg.PaySize is set.
func liveClientCtx(c *cell, cfg LiveConfig, i int, cl *core.Client, barrier *sync.WaitGroup) {
	defer livebind.DrainPort(cl.Srv)
	// Each client derives its own child context: cancellation still
	// fans out from the root, but the per-message Err() polls hit a
	// per-client mutex instead of contending on one shared context
	// across every client goroutine.
	ctx, cancel := context.WithCancel(c.ctx)
	defer cancel()
	ans, err := cl.SendCtx(ctx, core.Msg{Op: core.OpConnect})
	if err != nil {
		c.noteErr("client%d: connect: %v", i, err)
		barrier.Done()
		return
	}
	if ans.Op != core.OpConnect {
		c.noteErr("client%d: bad connect reply %+v", i, ans)
	}
	barrier.Done()
	barrier.Wait()
	c.noteStart()
	var pe *payEcho
	if cfg.PaySize > 0 {
		pe = &payEcho{cl: cl, size: cfg.PaySize}
		if cfg.PayCopy {
			pe.scratch = make([]byte, cfg.PaySize)
		}
		defer pe.close()
	}
	for j := 0; j < cfg.Msgs; j++ {
		m := core.Msg{Op: core.OpEcho, Seq: int32(j), Val: float64(j)}
		if pe != nil {
			m.Op = core.OpWork
			ans, err = pe.echo(ctx, m)
		} else {
			ans, err = cl.SendCtx(ctx, m)
		}
		if err != nil {
			c.noteErr("client%d: send %d: %v", i, j, err)
			return
		}
		if !echoed(ans, j) {
			c.noteErr("client%d: reply mismatch at %d: %+v", i, j, ans)
		}
	}
	if pe != nil {
		pe.close()
	}
	if _, err := cl.SendCtx(ctx, core.Msg{Op: core.OpDisconnect}); err != nil {
		c.noteErr("client%d: disconnect: %v", i, err)
	}
}

// runLiveGroup is the server-group variant of RunLive: every shard runs
// a vectored ServeBatch loop on its own goroutine, every client pushes
// its messages in SendBatch bursts of cfg.Batch. The harness skips the
// connect/disconnect handshake — shard membership is static and work
// stealing may carry a control op's bookkeeping to the wrong shard —
// so shards exit on the Shutdown marker once every client is done.
// Replies are validated as a per-batch multiset (checkBatch).
func runLiveGroup(cfg LiveConfig, sys *livebind.System) (Result, error) {
	batch := cfg.Batch
	if batch < 1 {
		batch = 16
	}
	srvs, err := sys.ShardServers()
	if err != nil {
		return Result{}, err
	}
	cls, err := handles(cfg.Clients, sys.Client)
	if err != nil {
		return Result{}, err
	}
	c := newCell(sys, cfg.Alg, cfg.Clients, cfg.Watchdog)
	c.dump = cfg.DumpOnWatchdog
	var served atomic.Int64
	for _, sv := range srvs {
		c.server(func() {
			if cfg.Watchdog > 0 {
				n, err := sv.ServeBatchCtx(c.ctx, nil, batch)
				if err != nil {
					c.noteErr("shard: %v", err)
				}
				served.Add(n)
				return
			}
			served.Add(sv.ServeBatch(nil, batch))
		})
	}

	var barrier sync.WaitGroup
	barrier.Add(cfg.Clients)
	for i, cl := range cls {
		c.client(func() {
			barrier.Done()
			barrier.Wait()
			c.noteStart()
			msgs := make([]core.Msg, 0, batch)
			seen := make([]bool, batch)
			for j := 0; j < cfg.Msgs; j += len(msgs) {
				msgs = echoBatch(msgs, j, min(batch, cfg.Msgs-j))
				var out []core.Msg
				if cfg.Watchdog > 0 {
					var err error
					out, err = cl.SendBatchCtx(c.ctx, msgs)
					if err != nil {
						c.noteErr("client%d: batch at %d: %v", i, j, err)
						return
					}
				} else {
					out = cl.SendBatch(msgs)
				}
				if err := checkBatch(out, cl.ID, j, len(msgs), seen); err != nil {
					c.noteErr("client%d: batch at %d: %v", i, j, err)
					return
				}
			}
		})
	}
	c.joinClients()
	c.teardown()

	res := c.result(fmt.Sprintf("live/%s/%dc/%ds", cfg.Alg, cfg.Clients, cfg.Shards), served.Load(), cfg.Msgs)
	if total := int64(cfg.Clients * cfg.Msgs); served.Load() != total {
		c.noteErr("shards served %d, want %d", served.Load(), total)
	}
	return res, c.err("live group validation failed")
}
