package main

import (
	"context"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"vuvuzela/internal/sim"
	"vuvuzela/internal/transport"
)

// replyTimeout bounds how long a round waits for its last reply after
// the coordinator returned; a reply later than this is missing.
const replyTimeout = 10 * time.Second

// deployment is one running sim.ChainNet with the swarm connected.
type deployment struct {
	w        workload
	cn       *sim.ChainNet
	sw       *swarm
	tn       *traceNet // nil unless the deployment is traced
	stateDir string
	// next is the round the swarm has prepared onions for.
	next uint64
	// lastHop is when the last server's exchange observer fired for the
	// most recent conversation round, in the trace's time base (traced
	// deployments only).
	lastHop atomic.Int64
}

// roundResult is one timed round: from the call into RunConvoRound or
// RunDialRound until the last client's reply was received and checked.
type roundResult struct {
	round      uint64
	start, end time.Time
	ok, failed int
	errs       []string
}

func (r roundResult) latency() time.Duration { return r.end.Sub(r.start) }

// setUp boots a deployment for w, connects and registers the swarm, and
// runs one warm-up round; it returns only once round 2's onions are
// prepared.
func setUp(w workload, seed uint64, stateRoot string, traced bool) (*deployment, error) {
	if err := os.MkdirAll(stateRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(stateRoot, w.name+"-")
	if err != nil {
		return nil, err
	}
	d := &deployment{w: w, stateDir: dir, next: 1}
	cfg := sim.ChainNetConfig{
		Servers:     servers,
		Frontends:   w.frontends,
		Mu:          w.mu,
		ConvoWindow: 1,
		StateDir:    dir,
	}
	if traced {
		d.tn = newTraceNet()
		cfg.Net = d.tn
		cfg.ConvoObserver = func(uint64, int, int, int) { d.lastHop.Store(int64(d.tn.since(time.Now()))) }
	} else {
		cfg.Net = transport.NewMem()
	}
	cn, err := sim.NewChainNet(cfg)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	d.cn = cn
	d.sw = newSwarm(w, seed, cn.Pubs)
	addrs := cn.FrontAddrs
	if len(addrs) == 0 {
		addrs = []string{cn.EntryAddr}
	}
	if err := d.sw.connect(cfg.Net, addrs); err != nil {
		d.close()
		return nil, err
	}
	if err := d.waitRegistered(5 * time.Second); err != nil {
		d.close()
		return nil, err
	}
	if err := d.sw.prepare(d.next); err != nil {
		d.close()
		return nil, err
	}
	if warm := d.runRound(context.Background()); warm.failed > 0 {
		d.close()
		return nil, fmt.Errorf("warm-up round failed: %v", warm.errs)
	}
	if err := d.prepareNext(); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// waitRegistered waits until the entry tier holds every client and
// every frontend pipe is up.
func (d *deployment) waitRegistered(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		clients, pipes := d.cn.Coord.NumClients(), 0
		for _, fe := range d.cn.Fronts {
			clients += fe.NumClients()
			if fe.Connected() {
				pipes++
			}
		}
		if clients == d.w.clients && pipes == len(d.cn.Fronts) && d.cn.Coord.NumFrontends() == pipes {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d of %d clients and %d of %d frontend pipes registered",
				clients, d.w.clients, pipes, len(d.cn.Fronts))
		}
		time.Sleep(time.Millisecond)
	}
}

// runRound drives the prepared round through the coordinator and waits
// for every client's verified reply. It does not prepare the next
// round: callers do that with prepareNext, outside any timed window.
func (d *deployment) runRound(ctx context.Context) roundResult {
	r := d.next
	t := d.sw.begin(r)
	start := time.Now()
	var (
		got   uint64
		parts int
		err   error
	)
	if d.w.dial {
		got, parts, err = d.cn.Coord.RunDialRound(ctx)
	} else {
		got, parts, err = d.cn.Coord.RunConvoRound(ctx)
	}
	if err == nil && (got != r || parts != d.w.clients) {
		err = fmt.Errorf("coordinator ran round %d with %d participants, want round %d with %d", got, parts, r, d.w.clients)
	}
	if err == nil {
		select {
		case <-t.done:
		case <-time.After(replyTimeout):
		}
	}
	t = d.sw.finish(t)
	res := roundResult{round: r, start: start, end: t.end, ok: t.ok, failed: t.failed, errs: t.errs}
	if err != nil {
		res.errs = append(res.errs, err.Error())
		// A failed round fails every op not verified already.
		res.failed = d.w.clients - res.ok
	}
	// The coordinator burns a round number even when the round fails.
	d.next = max(got, r) + 1
	return res
}

// prepareNext wraps every client's onion for the coming round.
func (d *deployment) prepareNext() error { return d.sw.prepare(d.next) }

// close stops every node and client and removes the round state.
func (d *deployment) close() {
	if d.sw != nil {
		d.sw.close()
	}
	if d.cn != nil {
		d.cn.Close()
	}
	os.RemoveAll(d.stateDir)
}
