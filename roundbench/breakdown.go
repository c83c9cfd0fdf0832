package main

import (
	"fmt"
	"math"
	"time"

	"vuvuzela/internal/sim"
)

// Legs of the deployment, named by the address their connections were
// dialed to.
const (
	legClient = iota // client ↔ frontend or coordinator
	legFront         // frontend ↔ coordinator pipe
	legEntry         // coordinator ↔ server 0
	legHop01         // server 0 ↔ server 1
	legHop12         // server 1 ↔ server 2
	numLegs
)

var legNames = [numLegs]string{"client", "front", "entry", "hop01", "hop12"}

// legOf maps each listen address of cn to its leg.
func legOf(cn *sim.ChainNet) map[string]int {
	m := map[string]int{cn.EntryAddr: legClient}
	for _, a := range cn.FrontAddrs {
		m[a] = legClient
	}
	if cn.FrontPipeAddr != "" {
		m[cn.FrontPipeAddr] = legFront
	}
	for i, a := range cn.ServerAddrs {
		m[a] = legEntry + i
	}
	return m
}

// legTimes summarises one leg in one round. The dialer sends the
// request direction (client submission, frontend batch, chain batch);
// the acceptor sends the other (announcement, replies).
type legTimes struct {
	// fwdStart/fwdEnd: first dialer Write start, last dialer Write end.
	fwdStart, fwdEnd time.Duration
	// backStart: first acceptor Write start; backEnd: last dialer Read
	// end.
	backStart, backEnd time.Duration
	bytes, writes      int
}

// never marks a start no event has set.
const never = time.Duration(math.MaxInt64)

// complete reports whether the leg carried traffic both ways.
func (l legTimes) complete() bool {
	return l.fwdStart != never && l.backStart != never && l.fwdEnd >= 0 && l.backEnd >= 0
}

func summarise(evs []event, legs map[string]int) [numLegs]legTimes {
	var out [numLegs]legTimes
	for i := range out {
		out[i] = legTimes{fwdStart: never, backStart: never, fwdEnd: -1, backEnd: -1}
	}
	for _, e := range evs {
		leg, ok := legs[e.addr]
		if !ok {
			continue
		}
		l := &out[leg]
		switch {
		case e.write && e.dialer:
			l.fwdStart = min(l.fwdStart, e.start)
			l.fwdEnd = max(l.fwdEnd, e.end)
		case e.write:
			l.backStart = min(l.backStart, e.start)
		case e.dialer:
			l.backEnd = max(l.backEnd, e.end)
		}
		if e.write {
			l.bytes += e.n
			l.writes++
		}
	}
	return out
}

// breakdown is one traced round split along its blocking steps. A hop's
// self time runs from its batch received to its forward start, plus from
// its reply received to its own reply start; its wait is from forward
// start to reply received. The transfers themselves (sender's first
// Write start to receiver holding the bytes) belong to no stage and are
// what the sum check reports as unaccounted.
type breakdown struct {
	round                time.Duration
	collect, fanout      time.Duration
	frontBatch           time.Duration
	self                 [servers]time.Duration
	wait                 [servers - 1]time.Duration
	lastUnwrap, lastSeal time.Duration
	kb                   [numLegs]float64
	writes               [numLegs]int
	unaccounted          time.Duration
}

// analyse splits one traced round. start and end are the round's timed
// window; lastHop is when the last server's exchange observer fired
// (zero for dial rounds, whose last hop is all unwrap).
func analyse(evs []event, legs map[string]int, start, end, lastHop time.Duration, fronted bool) (breakdown, error) {
	lt := summarise(evs, legs)
	needed := []int{legClient, legEntry, legHop01, legHop12}
	if fronted {
		needed = append(needed, legFront)
	}
	for _, leg := range needed {
		if !lt[leg].complete() {
			return breakdown{}, fmt.Errorf("leg %s carried no traffic one way or the other", legNames[leg])
		}
	}
	e, h01, h12 := lt[legEntry], lt[legHop01], lt[legHop12]
	var b breakdown
	b.round = end - start
	b.collect = e.fwdStart - start
	b.self[0] = (h01.fwdStart - e.fwdEnd) + (e.backStart - h01.backEnd)
	b.wait[0] = h01.backEnd - h01.fwdStart
	b.self[1] = (h12.fwdStart - h01.fwdEnd) + (h01.backStart - h12.backEnd)
	b.wait[1] = h12.backEnd - h12.fwdStart
	b.self[2] = h12.backStart - h12.fwdEnd
	if lastHop > 0 {
		b.lastUnwrap = lastHop - h12.fwdEnd
		b.lastSeal = h12.backStart - lastHop
	} else {
		// A dial round's last hop only unwraps and files invitations:
		// there is no exchange and no reply seal.
		b.lastUnwrap = b.self[2]
	}
	b.fanout = end - e.backEnd
	// Client collection: from the first announcement leaving toward a
	// collector to the last submission (direct) or partial batch
	// (fronted) in the coordinator's hands.
	collectLeg := lt[legClient]
	if fronted {
		collectLeg = lt[legFront]
	}
	b.frontBatch = collectLeg.fwdEnd - collectLeg.backStart
	for i := range lt {
		b.kb[i] = float64(lt[i].bytes) / 1024
		b.writes[i] = lt[i].writes
	}
	b.unaccounted = b.round - b.collect - b.fanout
	for _, s := range b.self {
		b.unaccounted -= s
	}
	for _, d := range []time.Duration{b.collect, b.fanout, b.frontBatch, b.self[0], b.self[1], b.self[2], b.wait[0], b.wait[1], b.lastUnwrap, b.lastSeal} {
		if d < 0 {
			return breakdown{}, fmt.Errorf("negative stage time %v: events out of order", d)
		}
	}
	return b, nil
}
