package workload

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ulipc/internal/core"
	"ulipc/internal/fault"
	"ulipc/internal/livebind"
	"ulipc/internal/metrics"
	"ulipc/internal/queue"
)

// The chaos harness: the live client/server workload run under seeded
// fault injection with the recovery sweeper on. A cell passes when it
// stays LIVE — every participant either completes its script, dies to
// an injected crash, or observes its peer's death and returns — and
// LEAK-FREE: after teardown every shm pool holds exactly the refs it
// started with, crashes notwithstanding. Throughput is explicitly not
// the point; the cell's wall-clock is dominated by recovery latency.

// ChaosConfig describes one chaos cell. The zero value of every rate
// disables that fault class; Seed makes the cell reproducible.
type ChaosConfig struct {
	Alg      core.Algorithm
	Clients  int
	Msgs     int // per client
	QueueCap int
	MaxSpin  int

	// Seed drives every per-actor fault stream; the same seed and
	// topology replay the same faults.
	Seed int64

	// CrashRate is the per-draw probability of an injected crash at each
	// crashpoint (queue critical sections, semaphore ops, actor bodies).
	CrashRate float64

	// MaxCrashes caps the total injected crashes (the crash budget);
	// 0 defaults to half the participants so the cell keeps survivors.
	MaxCrashes int

	// DropRate/DupRate/DelayRate mutate wake-up Vs: swallowed, doubled,
	// or delivered late.
	DropRate  float64
	DupRate   float64
	DelayRate float64

	// Watchdog bounds the whole cell (default 30s): if any participant
	// is still blocked past it, the cell is deadlocked — the failure the
	// recovery layer exists to prevent.
	Watchdog time.Duration

	// SweepInterval is the recovery sweeper period (default 200µs).
	SweepInterval time.Duration

	// PaySize, when > 0, attaches a leased payload block to every echo:
	// the system is built with a slab arena and the cell additionally
	// audits lease conservation — after teardown every block must be
	// back in the arena, crashes mid-lease notwithstanding.
	PaySize int
}

func (c *ChaosConfig) defaults() error {
	if c.Clients < 1 {
		return fmt.Errorf("workload: chaos cell needs at least 1 client")
	}
	if c.Msgs < 1 {
		return fmt.Errorf("workload: chaos cell needs at least 1 message")
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.MaxSpin <= 0 {
		c.MaxSpin = core.DefaultMaxSpin
	}
	if c.Watchdog <= 0 {
		c.Watchdog = 30 * time.Second
	}
	if c.SweepInterval <= 0 {
		c.SweepInterval = 200 * time.Microsecond
	}
	if c.MaxCrashes <= 0 {
		c.MaxCrashes = (c.Clients + 1) / 2
	}
	return nil
}

// ChaosResult is one cell's outcome, JSON-ready for the chaos report.
type ChaosResult struct {
	Label   string `json:"label"`
	Alg     string `json:"alg"`
	Clients int    `json:"clients"`
	Seed    int64  `json:"seed"`

	Completed int64 `json:"completed"` // validated round trips
	Aborted   int   `json:"aborted"`   // clients ended early (crash or peer death)

	// Injected fault tallies (from the injector).
	Crashes    int64 `json:"crashes"`
	WakeDrops  int64 `json:"wake_drops"`
	WakeDups   int64 `json:"wake_dups"`
	WakeDelays int64 `json:"wake_delays"`

	// Recovery tallies (from the sweeper's counters).
	PeerDeaths   int64 `json:"peer_deaths"`
	LockReclaims int64 `json:"lock_reclaims"`
	OrphanMsgs   int64 `json:"orphan_msgs"`
	OrphanRefs   int64 `json:"orphan_refs"`
	OrphanBlocks int64 `json:"orphan_blocks,omitempty"`
	WakeRescues  int64 `json:"wake_rescues"`

	// Failure modes. Deadlocked: the watchdog expired with participants
	// still blocked. PoolLeaked: refs missing from (positive) or
	// double-freed into (negative) the shm pools after teardown.
	// BlockLeaked is the payload analogue — blocks missing from the slab
	// arena after teardown and reclaim (payload cells only).
	Deadlocked  bool   `json:"deadlocked"`
	PoolLeaked  int64  `json:"pool_leaked"`
	BlockLeaked int64  `json:"block_leaked,omitempty"`
	Error       string `json:"error,omitempty"`

	// Overload tallies, set by the overload-kill cell (the kill lands
	// while admission rejects and deadline sheds are in flight).
	Sheds     int64 `json:"sheds,omitempty"`
	Overloads int64 `json:"overloads,omitempty"`

	// PaySize is set on payload cells (0 = bare 24-byte messages).
	PaySize int `json:"pay_size,omitempty"`

	// Shards is set on server-group shard-kill cells (0 = classic cell).
	Shards int `json:"shards,omitempty"`
}

// chaosRun is a chaos cell: the harness cell plus the tallies the
// chaos report adds.
type chaosRun struct {
	*cell
	res       ChaosResult
	completed atomic.Int64 // validated round trips
	aborted   atomic.Int64 // clients that ended early on peer death or shutdown

	posMu sync.Mutex
	pos   []string // per-client script position (classic cells)
}

// newChaosRun wraps sys in a chaos cell. Chaos cells tolerate a
// Shutdown drain that times out: a killed participant's requests may
// outlive it.
func newChaosRun(cfg ChaosConfig, sys *livebind.System, res ChaosResult) *chaosRun {
	c := newCell(sys, cfg.Alg, cfg.Clients, cfg.Watchdog)
	c.lenient = true
	return &chaosRun{cell: c, res: res}
}

// newChaosSystem builds the scalar chaos topology: two-lock queues on
// BOTH legs, so every enqueue and dequeue walks the recoverable
// critical sections (the SPSC reply default has no locks, nothing to
// crash in) and every node pool is auditable after teardown, with the
// recovery sweeper on.
func newChaosSystem(cfg ChaosConfig, opts ...livebind.Option) (*livebind.System, error) {
	maxSpin, _ := tuneFor(cfg.Alg, cfg.MaxSpin, 0)
	return livebind.NewSystem(livebind.Options{
		Alg:        cfg.Alg,
		MaxSpin:    maxSpin,
		Clients:    cfg.Clients,
		QueueCap:   cfg.QueueCap,
		QueueKind:  queue.KindTwoLock,
		BlockSlots: blockSlots(cfg.PaySize, cfg.Clients, 0),
		SleepScale: time.Millisecond,
		Metrics:    metrics.NewSet(),
	}, append(opts,
		livebind.WithReplyKind(queue.KindTwoLock),
		livebind.WithRecovery(livebind.RecoveryOptions{SweepInterval: cfg.SweepInterval}))...)
}

// endOfRound classifies a client's failed protocol call: injected peer
// death and shutdown end the participant gracefully (it aborts, and
// endOfRound reports true); a watchdog expiry is the deadlock the cell
// exists to detect (the harness marks the cell tripped); anything else
// is a bug.
func (r *chaosRun) endOfRound(who string, err error) bool {
	switch {
	case errors.Is(err, core.ErrPeerDead), errors.Is(err, core.ErrShutdown):
		r.aborted.Add(1)
		return true
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
	default:
		r.noteErr("%s: %v", who, err)
	}
	return false
}

// serverErr notes a serve-loop error unless it is one a chaos cell
// expects: peer death, shutdown, or the harness's own cancellation.
func (r *chaosRun) serverErr(who string, err error) {
	if err != nil && !errors.Is(err, core.ErrPeerDead) && !errors.Is(err, core.ErrShutdown) &&
		!errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
		r.noteErr("%s: %v", who, err)
	}
}

func (r *chaosRun) setPos(i int, s string) {
	r.posMu.Lock()
	r.pos[i] = s
	r.posMu.Unlock()
}

// report fills the result after teardown: recovery tallies, the
// auditor's leak counts, and the failure list (a deadlock first, then
// the cell's own errors and the auditor's).
func (r *chaosRun) report() (ChaosResult, error) {
	t := r.ms.Total()
	res := &r.res
	res.Completed = r.completed.Load()
	res.Aborted = int(r.aborted.Load())
	res.PeerDeaths = t.PeerDeaths
	res.LockReclaims = t.LockReclaims
	res.OrphanMsgs = t.OrphanMsgs
	res.OrphanRefs = t.OrphanRefs
	res.OrphanBlocks = t.OrphanBlocks
	res.WakeRescues = t.WakeRescues
	res.Deadlocked = r.tripped
	res.PoolLeaked, res.BlockLeaked = r.poolLeaked, r.blockLeaked

	var fail []string
	if r.tripped {
		stuck := "deadlocked: watchdog expired with participants blocked"
		if r.pos != nil {
			r.posMu.Lock()
			stuck += fmt.Sprintf(" (clients: %v)", r.pos)
			r.posMu.Unlock()
		}
		fail = append(fail, stuck)
	}
	fail = append(fail, r.errs...)
	if len(fail) > 0 {
		res.Error = fmt.Sprintf("%v", fail)
		return *res, fmt.Errorf("chaos cell %s: %v", res.Label, fail)
	}
	return *res, nil
}

// RunChaosCell executes one seeded chaos cell and returns its result.
// The returned error is non-nil when the cell violated a hard
// invariant: deadlock, a pool leak, a validation mismatch, or a panic
// that was not an injected fault.
func RunChaosCell(cfg ChaosConfig) (ChaosResult, error) {
	if err := cfg.defaults(); err != nil {
		return ChaosResult{}, err
	}
	plan := fault.Plan{
		Seed:         cfg.Seed,
		DropWake:     cfg.DropRate,
		DupWake:      cfg.DupRate,
		DelayWake:    cfg.DelayRate,
		WakeDelayDur: 100 * time.Microsecond,
		MaxCrashes:   cfg.MaxCrashes,
	}
	for _, p := range []fault.Point{
		fault.PtAfterAlloc, fault.PtEnqueueLocked, fault.PtDequeueLocked,
		fault.PtBeforeFree, fault.PtWake, fault.PtBlock, fault.PtBody,
	} {
		plan.Crash[p] = cfg.CrashRate
	}
	inj := fault.NewInjector(plan)
	sys, err := newChaosSystem(cfg, livebind.WithFaults(inj))
	if err != nil {
		return ChaosResult{}, err
	}
	label := fmt.Sprintf("chaos/%s/%dc/seed%d", cfg.Alg, cfg.Clients, cfg.Seed)
	if cfg.PaySize > 0 {
		label += fmt.Sprintf("/p%d", cfg.PaySize)
	}
	// Handles are created server first: actor creation order picks each
	// actor's fault stream, so the order is part of what a seed replays.
	srv := sys.Server()
	cls, err := handles(cfg.Clients, sys.Client)
	if err != nil {
		return ChaosResult{}, err
	}
	r := newChaosRun(cfg, sys, ChaosResult{
		Label:   label,
		Alg:     cfg.Alg.String(),
		Clients: cfg.Clients,
		Seed:    cfg.Seed,
		PaySize: cfg.PaySize,
	})
	// pos tracks each client's script position (last protocol call) so a
	// deadlocked cell can name who was stuck where — the first question
	// any chaos failure raises.
	r.pos = make([]string, cfg.Clients)

	// survive wraps a participant body: an injected crash panic is
	// reported to the lifetable (the FUTEX_OWNER_DIED analogue) and the
	// goroutine dies in place; any other panic is a real bug.
	survive := func(body func()) {
		defer func() {
			if v := recover(); v != nil {
				if !sys.ReportCrash(v) {
					panic(v)
				}
			}
		}()
		body()
	}

	// The server's exit is NOT a liveness criterion: a crashed client
	// never disconnects, so a correct server legitimately waits for work
	// until teardown releases it. It serves on after its connected count
	// drops to zero, too — the clients start unsynchronised, and a
	// straggler may connect after the others have disconnected. Payload
	// cells route echoes through the OpWork handler so the server side
	// of the lease discipline (claim + re-attach) is under fire too: a
	// crash between the claim and the reply leaves the block tagged by
	// the server, which only the sweeper's owner walk can recover.
	r.server(func() {
		survive(func() {
			for {
				_, err := srv.ServeCtx(r.ctx, payWork(srv, cfg.PaySize, false))
				r.serverErr("server", err)
				if err != nil || srv.Rcv.(core.PortState).Closed() {
					return
				}
			}
		})
	})

	for i, cl := range cls {
		r.client(func() {
			fh := cl.A.(*livebind.Actor).FH
			survive(func() {
				// An injected crash (panic) deliberately skips pe.close
				// so the dead client strands its lease — the sweeper's
				// owner walk must recover it or the block audit fails
				// the cell.
				var pe *payEcho
				if cfg.PaySize > 0 {
					pe = &payEcho{cl: cl, size: cfg.PaySize}
				}
				closePE := func() {
					if pe != nil {
						pe.close()
					}
				}
				r.setPos(i, "connect")
				if _, err := cl.SendCtx(r.ctx, core.Msg{Op: core.OpConnect}); err != nil {
					r.setPos(i, fmt.Sprintf("connect-err:%v", err))
					r.endOfRound(fmt.Sprintf("client%d connect", i), err)
					return
				}
				for j := 0; j < cfg.Msgs; j++ {
					fh.Crashpoint(fault.PtBody)
					r.setPos(i, fmt.Sprintf("send %d", j))
					m := core.Msg{Op: core.OpEcho, Seq: int32(j), Val: float64(j)}
					var ans core.Msg
					var err error
					if pe != nil {
						m.Op = core.OpWork
						ans, err = pe.echo(r.ctx, m)
					} else {
						ans, err = cl.SendCtx(r.ctx, m)
					}
					if err != nil {
						r.setPos(i, fmt.Sprintf("send %d err:%v", j, err))
						closePE()
						r.endOfRound(fmt.Sprintf("client%d send %d", i, j), err)
						return
					}
					if !echoed(ans, j) {
						r.noteErr("client%d: reply mismatch at %d: %+v", i, j, ans)
						closePE()
						return
					}
					r.completed.Add(1)
				}
				closePE()
				r.setPos(i, "disconnect")
				if _, err := cl.SendCtx(r.ctx, core.Msg{Op: core.OpDisconnect}); err != nil {
					r.setPos(i, fmt.Sprintf("disconnect-err:%v", err))
					r.endOfRound(fmt.Sprintf("client%d disconnect", i), err)
					return
				}
				r.setPos(i, "done")
			})
			r.posMu.Lock()
			r.pos[i] += " [exited]"
			r.posMu.Unlock()
		})
	}
	r.joinClients()
	r.teardown()

	counts := inj.Counts()
	r.res.Crashes = counts.Crashes
	r.res.WakeDrops = counts.WakeDrops
	r.res.WakeDups = counts.WakeDups
	r.res.WakeDelays = counts.WakeDelays
	return r.report()
}

// RunChaosShardKill runs the server-group fault cell: a sharded system
// (strict lane ownership — stealing is off, so a dead thief cannot
// strand a live victim's messages) in which one shard is crashed
// mid-run. The cell passes when the blast radius is exactly the dead
// shard: every client homed to it observes ErrPeerDead (its parked
// send released by the recovery layer's compensating wake), every
// other client completes its full script through the surviving shards,
// and the dead shard's request lanes are drained by the sweeper's
// orphan pass. Deadlock anywhere fails the cell.
func RunChaosShardKill(cfg ChaosConfig, shards int) (ChaosResult, error) {
	if err := cfg.defaults(); err != nil {
		return ChaosResult{}, err
	}
	if shards < 2 {
		return ChaosResult{}, fmt.Errorf("workload: shard-kill cell needs at least 2 shards")
	}
	if cfg.Clients < shards {
		return ChaosResult{}, fmt.Errorf("workload: shard-kill cell needs a client per shard")
	}
	const batch = 8
	groupSpin, _ := tuneFor(cfg.Alg, cfg.MaxSpin, 0)
	sys, err := livebind.NewSystemGroup(shards, livebind.Options{
		Alg:        cfg.Alg,
		MaxSpin:    groupSpin,
		Clients:    cfg.Clients,
		QueueCap:   cfg.QueueCap,
		SleepScale: time.Millisecond,
		NoSteal:    true,
		Metrics:    metrics.NewSet(),
	},
		livebind.WithRecovery(livebind.RecoveryOptions{SweepInterval: cfg.SweepInterval}),
	)
	if err != nil {
		return ChaosResult{}, err
	}
	srvs, err := sys.ShardServers()
	if err != nil {
		return ChaosResult{}, err
	}
	cls, err := handles(cfg.Clients, sys.Client)
	if err != nil {
		return ChaosResult{}, err
	}
	r := newChaosRun(cfg, sys, ChaosResult{
		Label:   fmt.Sprintf("chaos/shardkill/%s/%dc/%ds", cfg.Alg, cfg.Clients, shards),
		Alg:     cfg.Alg.String(),
		Clients: cfg.Clients,
		Seed:    cfg.Seed,
		Shards:  shards,
	})

	const victim = 0
	victimCtx, killVictim := context.WithCancel(r.ctx)
	defer killVictim()
	for sh, sv := range srvs {
		r.server(func() {
			ctx := r.ctx
			if sh == victim {
				ctx = victimCtx
			}
			_, err := sv.ServeBatchCtx(ctx, nil, batch)
			r.serverErr(fmt.Sprintf("shard%d", sh), err)
		})
	}

	// Client i is homed to shard i%shards by the hash picker. Clients of
	// the victim send one warm-up batch (proving the shard served), hold
	// at a gate while the harness crashes it, then send again — the send
	// that MUST surface ErrPeerDead. Survivor clients run their scripts
	// uninterrupted.
	warm := make(chan struct{}, cfg.Clients)
	killed := make(chan struct{})
	sendBatch := func(cl *core.Client, msgs []core.Msg, seen []bool, base, k int) error {
		msgs = echoBatch(msgs, base, k)
		out, err := cl.SendBatchCtx(r.ctx, msgs)
		if err != nil {
			return err
		}
		if err := checkBatch(out, cl.ID, base, k, seen); err != nil {
			return err
		}
		r.completed.Add(int64(k))
		return nil
	}
	victimClients := 0
	for i, cl := range cls {
		onVictim := i%shards == victim
		if onVictim {
			victimClients++
		}
		r.client(func() {
			msgs, seen := make([]core.Msg, 0, batch), make([]bool, batch)
			j := 0
			if onVictim {
				err := sendBatch(cl, msgs, seen, j, batch)
				warm <- struct{}{}
				if err != nil {
					r.noteErr("client%d warm-up: %v", i, err)
					return
				}
				j += batch
				<-killed
			}
			for ; j < cfg.Msgs; j += batch {
				if err := sendBatch(cl, msgs, seen, j, min(batch, cfg.Msgs-j)); err != nil {
					if r.endOfRound(fmt.Sprintf("client%d at %d", i, j), err) && !onVictim {
						r.noteErr("client%d (survivor, shard %d): spurious %v", i, i%shards, err)
					}
					return
				}
			}
			if onVictim {
				// A victim client whose post-kill sends all succeeded saw
				// neither ErrPeerDead nor the recovery path — the kill
				// landed after its script; the cell proves nothing then.
				r.noteErr("client%d: completed despite its shard being killed", i)
			}
		})
	}

	// Crash the victim once each of its clients has a served warm-up
	// batch: stop its serve loop, report the actor dead, and force a
	// sweep so recovery (peer-death marking, lane drain, compensating
	// client wakes) runs before the held clients send again.
	for w := 0; w < victimClients; w++ {
		select {
		case <-warm:
		case <-r.ctx.Done():
		}
	}
	killVictim()
	sys.KillActor(srvs[victim].A.(*livebind.Actor).ID)
	sys.SweepNow()
	close(killed)
	r.joinClients()

	if !sys.ShardDead(victim) {
		r.noteErr("shard %d not marked dead after kill", victim)
	}
	for sh := 1; sh < shards; sh++ {
		if sys.ShardDead(sh) {
			r.noteErr("surviving shard %d marked dead", sh)
		}
	}
	sys.SweepNow() // final orphan pass over the dead shard's lanes
	if !sys.ShardChannel(victim).Queue().Empty() {
		r.noteErr("dead shard %d still holds undrained requests", victim)
	}
	if n := int(r.aborted.Load()); n != victimClients {
		r.noteErr("aborted %d clients, want exactly the %d homed to the dead shard", n, victimClients)
	}
	r.teardown()
	return r.report()
}

// ChaosOptions configures a chaos sweep over the protocol matrix.
type ChaosOptions struct {
	Algs    []core.Algorithm // default all four protocols
	Clients []int            // default {2, 4, 8}
	Msgs    int              // per client; default 200
	Seed    int64            // base seed; cell i uses Seed+i

	// Fault rates for every cell; zero values take the defaults noted.
	CrashRate float64 // default 0.02
	DropRate  float64 // default 0.05
	DupRate   float64 // default 0.02
	DelayRate float64 // default 0.02

	// Shards lists the server-group sizes to run a shard-kill cell at
	// (one cell per alg × size, after the classic matrix). Default {2};
	// explicit empty slice via NoShardKill disables them.
	Shards      []int
	NoShardKill bool

	// NoOverloadKill disables the overload-kill cells (one per alg,
	// after the shard-kill cells: a client SIGKILLed mid-overload with
	// sheds in flight, payload leases audited).
	NoOverloadKill bool

	// PaySizes lists payload sizes to run leak-audited payload cells at
	// (one cell per alg × size at the largest client count, after the
	// classic matrix). Empty disables them.
	PaySizes []int

	Watchdog time.Duration // per cell; default 30s
}

func (o *ChaosOptions) defaults() {
	if len(o.Algs) == 0 {
		o.Algs = core.Algorithms()
	}
	if len(o.Clients) == 0 {
		o.Clients = []int{2, 4, 8}
	}
	if o.Msgs <= 0 {
		o.Msgs = 200
	}
	if o.CrashRate == 0 {
		o.CrashRate = 0.02
	}
	if o.DropRate == 0 {
		o.DropRate = 0.05
	}
	if o.DupRate == 0 {
		o.DupRate = 0.02
	}
	if o.DelayRate == 0 {
		o.DelayRate = 0.02
	}
	if len(o.Shards) == 0 && !o.NoShardKill {
		o.Shards = []int{2}
	}
	if o.Watchdog <= 0 {
		o.Watchdog = 30 * time.Second
	}
}

// ChaosReport is the chaos sweep document (BENCH_chaos.json).
type ChaosReport struct {
	GeneratedAt string        `json:"generated_at"`
	GoVersion   string        `json:"go_version"`
	GOMAXPROCS  int           `json:"gomaxprocs"`
	BaseSeed    int64         `json:"base_seed"`
	MsgsPerCli  int           `json:"msgs_per_client"`
	Cells       []ChaosResult `json:"cells"`
}

// chaosSpec is one cell of a chaos sweep: its config (the sweep
// assigns the seed), its runner, and its progress line.
type chaosSpec struct {
	cfg    ChaosConfig
	run    func(ChaosConfig) (ChaosResult, error)
	report func(ChaosResult) string
}

// RunChaosBench sweeps the protocol matrix under seeded fault
// injection: the classic cells, then the payload cells, the shard-kill
// cells and the overload-kill cells, cell i seeded Seed+i. Every cell
// runs to completion regardless of earlier failures; the combined
// error names each violated cell. progress, when non-nil, receives one
// line per cell.
func RunChaosBench(opts ChaosOptions, progress io.Writer) (*ChaosReport, error) {
	opts.defaults()
	rep := &ChaosReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		BaseSeed:    opts.Seed,
		MsgsPerCli:  opts.Msgs,
	}
	faulty := func(alg core.Algorithm, n, paySize int) ChaosConfig {
		return ChaosConfig{
			Alg:       alg,
			Clients:   n,
			Msgs:      opts.Msgs,
			CrashRate: opts.CrashRate,
			DropRate:  opts.DropRate,
			DupRate:   opts.DupRate,
			DelayRate: opts.DelayRate,
			Watchdog:  opts.Watchdog,
			PaySize:   paySize,
		}
	}
	var specs []chaosSpec
	for _, alg := range opts.Algs {
		for _, n := range opts.Clients {
			specs = append(specs, chaosSpec{faulty(alg, n, 0), RunChaosCell, func(res ChaosResult) string {
				return fmt.Sprintf("%d/%d rtts, %d crashes, %d peer-deaths, %d reclaims, %d rescues",
					res.Completed, int64(n*opts.Msgs), res.Crashes,
					res.PeerDeaths, res.LockReclaims+res.OrphanRefs, res.WakeRescues)
			}})
		}
	}
	maxClients := opts.Clients[len(opts.Clients)-1]
	for _, size := range opts.PaySizes {
		if size <= 0 {
			continue
		}
		for _, alg := range opts.Algs {
			specs = append(specs, chaosSpec{faulty(alg, maxClients, size), RunChaosCell, func(res ChaosResult) string {
				return fmt.Sprintf("%d/%d rtts, %d crashes, %d orphan blocks, 0 leaked",
					res.Completed, int64(maxClients*opts.Msgs), res.Crashes, res.OrphanBlocks)
			}})
		}
	}
	if !opts.NoShardKill {
		for _, alg := range opts.Algs {
			for _, shards := range opts.Shards {
				cfg := ChaosConfig{Alg: alg, Clients: max(shards*2, maxClients), Msgs: opts.Msgs, Watchdog: opts.Watchdog}
				specs = append(specs, chaosSpec{cfg, func(c ChaosConfig) (ChaosResult, error) {
					return RunChaosShardKill(c, shards)
				}, func(res ChaosResult) string {
					return fmt.Sprintf("%d rtts, %d clients lost their shard, %d peer-deaths, %d orphans",
						res.Completed, res.Aborted, res.PeerDeaths, res.OrphanMsgs)
				}})
			}
		}
	}
	if !opts.NoOverloadKill {
		// Full-tilt sends are cheap; the storm needs volume — with too few
		// messages the blast is over before anything queues long enough to
		// shed, and a cell that never overloads proves nothing.
		for _, alg := range opts.Algs {
			cfg := ChaosConfig{Alg: alg, Clients: 4, Msgs: max(opts.Msgs*4, 2000), Watchdog: opts.Watchdog, PaySize: 64}
			specs = append(specs, chaosSpec{cfg, RunChaosOverloadKill, func(res ChaosResult) string {
				return fmt.Sprintf("%d rtts, %d sheds, %d rejects, %d orphan blocks, 0 leaked",
					res.Completed, res.Sheds, res.Overloads, res.OrphanBlocks)
			}})
		}
	}

	var failures []error
	for i, spec := range specs {
		spec.cfg.Seed = opts.Seed + int64(i)
		res, err := spec.run(spec.cfg)
		rep.Cells = append(rep.Cells, res)
		if err != nil {
			failures = append(failures, err)
		}
		if progress == nil {
			continue
		}
		if err != nil {
			fmt.Fprintf(progress, "%-24s FAILED: %v\n", res.Label, err)
		} else {
			fmt.Fprintf(progress, "%-24s ok: %s\n", res.Label, spec.report(res))
		}
	}
	return rep, errors.Join(failures...)
}

// WriteJSON emits the chaos report as indented JSON.
func (r *ChaosReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
