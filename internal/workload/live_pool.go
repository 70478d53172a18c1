package workload

import (
	"fmt"
	"sync"
	"time"

	"ulipc/internal/core"
	"ulipc/internal/livebind"
	"ulipc/internal/metrics"
)

// RunLivePool executes the worker-pool workload on the live runtime:
// LiveConfig.Workers server goroutines share the receive queue using the
// model-checked counted-waiters discipline.
func RunLivePool(cfg LiveConfig, workers int) (Result, error) {
	if workers < 1 {
		return Result{}, fmt.Errorf("workload: need at least 1 worker")
	}
	if cfg.Clients < 1 || cfg.Msgs < 1 {
		return Result{}, fmt.Errorf("workload: need at least 1 client and 1 message")
	}
	if cfg.SleepScale == 0 {
		cfg.SleepScale = time.Millisecond
	}
	maxSpin, _ := tuneFor(cfg.Alg, cfg.MaxSpin, 0)
	sys, err := livebind.NewSystem(livebind.Options{
		Alg:        cfg.Alg,
		MaxSpin:    maxSpin,
		Clients:    cfg.Clients,
		QueueCap:   cfg.QueueCap,
		QueueKind:  cfg.QueueKind,
		SpinIters:  cfg.SpinIters,
		SleepScale: cfg.SleepScale,
		Metrics:    metrics.NewSet(),
	})
	if err != nil {
		return Result{}, err
	}
	pool, err := sys.WorkerPool(workers)
	if err != nil {
		return Result{}, err
	}
	cls, err := handles(cfg.Clients, sys.PoolClient)
	if err != nil {
		return Result{}, err
	}
	c := newCell(sys, cfg.Alg, cfg.Clients, 0)
	for _, w := range pool {
		c.server(func() { w.Serve(nil) })
	}
	var barrier sync.WaitGroup
	barrier.Add(cfg.Clients)
	for i, cl := range cls {
		c.client(func() {
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
		})
	}
	c.joinClients()
	c.swg.Wait() // the workers exit once every client has disconnected
	c.end = time.Now()
	c.teardown()

	served := pool[0].C.Served()
	res := c.result(fmt.Sprintf("live-pool%d/%s/%dc", workers, cfg.Alg, cfg.Clients), served, cfg.Msgs)
	res.Server = c.ms.ByPrefix("server")
	if total := int64(cfg.Clients * cfg.Msgs); served != total {
		c.noteErr("pool served %d, want %d", served, total)
	}
	return res, c.err("live pool validation failed")
}
