package workload

import (
	"errors"
	"fmt"
	"time"

	"ulipc/internal/core"
	"ulipc/internal/livebind"
)

// The overload-kill chaos cell: the overload doctrine and the recovery
// layer working the same incident. An open-loop blast drives the system
// past its high-water mark — admission rejects, the server sheds
// expired messages — and in the middle of that storm one client is
// killed (the in-process analogue of SIGKILL: no disconnect, no lease
// release, no reply drain). The cell passes when the two subsystems
// compose: the sweeper's audit holds with sheds still in flight —
// the dead client's stranded payload lease is reclaimed by the owner
// walk, its undrained reply queue (leases riding every message) is
// orphan-drained, replies the server sends it afterwards are dropped
// through the lease-conserving Reply path — and after teardown every
// node and block is back in its pool, while the survivors' overload
// machinery kept running (nonzero sheds AND rejects, no deadlock).

// Overload parameters of the kill cell. Fixed rather than configured:
// the cell asserts composition, not a tuning point. The service time is
// what makes the overload the cell's own rather than the host's: at
// okDeadline/8 per request the server completes at most eight requests
// per deadline, so a backlog at the high-water mark expires in the
// queue — sheds — whether the server has a CPU to itself or not.
const (
	okHighWater = 48                   // request-queue admission mark
	okRetryCap  = 16                   // client retry budget
	okDeadline  = 1 * time.Millisecond // per-message deadline
	okService   = okDeadline / 8       // server time per request
)

// RunChaosOverloadKill executes one overload-kill cell. cfg.Msgs is the
// per-client send attempt count (full tilt, no pacing — the offered
// rate is "as fast as the loop spins", far past the okService-bound
// capacity); the victim is client 0, killed after half its script.
func RunChaosOverloadKill(cfg ChaosConfig) (ChaosResult, error) {
	if err := cfg.defaults(); err != nil {
		return ChaosResult{}, err
	}
	if cfg.Clients < 2 {
		return ChaosResult{}, fmt.Errorf("workload: overload-kill cell needs at least 2 clients (a victim and a survivor)")
	}
	sys, err := newChaosSystem(cfg,
		livebind.WithAdmission(livebind.Admission{HighWater: okHighWater, RetryCap: okRetryCap}))
	if err != nil {
		return ChaosResult{}, err
	}
	label := fmt.Sprintf("chaos/overloadkill/%s/%dc/seed%d", cfg.Alg, cfg.Clients, cfg.Seed)
	if cfg.PaySize > 0 {
		label += fmt.Sprintf("/p%d", cfg.PaySize)
	}
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

	// The shared run epoch and shed policy, exactly as the open-loop
	// runner wires them.
	epoch := time.Now()
	nowNs := func() int64 { return time.Since(epoch).Nanoseconds() }
	dlNs := okDeadline.Nanoseconds()
	srv.Shed = deadlineShed(nowNs)
	echo := payWork(srv, cfg.PaySize, false)
	r.server(func() {
		_, err := srv.ServeCtx(r.ctx, func(m *core.Msg) {
			time.Sleep(okService)
			if echo != nil {
				echo(m)
			}
		})
		if err != nil {
			r.noteErr("server: %v", err)
		}
	})

	// blast is the shared client body: full-tilt deadline-stamped sends
	// with opportunistic reply draining (primed-awake collector, as in
	// openLoopClient). It returns early — abandoning everything in
	// flight — when stopAt sends have gone out (the victim's death).
	// Survivors then collect their backlog with the open-loop grace
	// drain.
	blast := func(id int, cl *core.Client, stopAt int) {
		cl.Rcv.SetAwake(true)
		drain := func() int { return collect(cl, func(core.Msg) { r.completed.Add(1) }) }
		send := func(m core.Msg) error { return cl.SendAsyncCtx(r.ctx, m) }
		for j := 0; j < cfg.Msgs && r.ctx.Err() == nil; j++ {
			if j == stopAt {
				return // killed mid-overload: no drain, no frees, no goodbye
			}
			drain()
			// OpWork, payload or not: the server's service time runs in
			// its work callback.
			m := core.Msg{Op: core.OpWork, Seq: int32(j), Val: float64(nowNs() + dlNs)}
			if _, err := offer(cl, m, cfg.PaySize, send); err != nil && !errors.Is(err, core.ErrOverload) {
				if r.ctx.Err() == nil {
					r.noteErr("client%d: send: %v", id, err)
				}
				return
			}
		}
		graceDrain(r.ctx, cl, drain, 8*time.Millisecond, nowNs, 0)
	}

	const victim = 0
	victimGone := make(chan struct{})
	r.client(func() {
		defer close(victimGone)
		// The stranded lease: allocated, never sent, never freed — only
		// the sweeper's owner walk can return it.
		if cfg.PaySize > 0 {
			if _, err := cls[victim].AllocPayload(cfg.PaySize); err != nil {
				r.noteErr("victim: stranded-lease alloc: %v", err)
			}
		}
		blast(victim, cls[victim], cfg.Msgs/2)
		// Hold the corpse until the storm is real: the kill must land
		// with sheds in flight, so wait (bounded — the final Sheds==0
		// check reports a cell that never overloaded) for the server to
		// have shed at least once while the survivors keep blasting.
		until := time.Now().Add(2 * time.Second)
		for r.ctx.Err() == nil && r.ms.Total().Sheds == 0 && time.Now().Before(until) {
			time.Sleep(200 * time.Microsecond)
		}
	})
	for i := 1; i < cfg.Clients; i++ {
		r.client(func() { blast(i, cls[i], -1) })
	}

	// The kill lands while the survivors are still blasting: mark the
	// victim dead and force a synchronous sweep, so recovery (owner
	// walk, orphan drains, peer-death marking) runs with the overload
	// machinery live around it.
	<-victimGone
	sys.KillActor(cls[victim].A.(*livebind.Actor).ID)
	sys.SweepNow()
	r.joinClients()

	// A final sweep with everything quiesced: whatever the server sent
	// the dead victim after the kill is orphaned in its reply queue now.
	sys.SweepNow()
	if !sys.ReplyChannel(victim).Queue().Empty() {
		r.noteErr("victim's reply queue not orphan-drained by the sweeper")
	}
	r.teardown()
	t := r.ms.Total()
	r.res.Sheds, r.res.Overloads = t.Sheds, t.Overloads
	if r.res.Sheds == 0 {
		r.noteErr("no sheds: the cell never reached overload, so it proves nothing")
	}
	if r.res.Overloads == 0 {
		r.noteErr("no admission rejects: the cell never reached overload")
	}
	if t.PeerDeaths == 0 {
		r.noteErr("victim's death never recovered")
	}
	if cfg.PaySize > 0 && t.OrphanBlocks == 0 {
		r.noteErr("stranded lease not reclaimed by the owner walk")
	}
	return r.report()
}
