package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"testing"

	"vuvuzela/internal/convo"
	"vuvuzela/internal/mixnet"
	"vuvuzela/internal/onion"
	"vuvuzela/internal/wire"
)

// genuineReply builds the reply the chain returns to c for its prepared
// round: the partner's sealed message, under one reply layer per server.
func genuineReply(t *testing.T, c *client) *wire.Message {
	t.Helper()
	p := c.next.Load()
	req, err := convo.BuildRequest(c.secret, p.round, &c.partner.pub, p.want)
	if err != nil {
		t.Fatal(err)
	}
	ct := req.Sealed[:]
	for layer := servers - 1; layer >= 0; layer-- {
		ct = onion.SealReply(ct, p.keys[layer], p.round, layer)
	}
	return &wire.Message{Kind: wire.KindReply, Proto: wire.ProtoConvo, Round: p.round, M: 1, Body: [][]byte{ct}}
}

func TestNeighboursReplyFailsTheOp(t *testing.T) {
	pubs, _, err := mixnet.NewChainKeys(servers)
	if err != nil {
		t.Fatal(err)
	}
	sw := newSwarm(workload{name: "pairs", clients: 4, mu: 1}, 1, pubs)
	if err := sw.prepare(5); err != nil {
		t.Fatal(err)
	}
	c := sw.clients
	prev := genuineReply(t, c[2]) // round 5, delivered later as a stale reply
	if err := sw.prepare(6); err != nil {
		t.Fatal(err)
	}
	tl := sw.begin(6)
	sw.deliver(c[0], genuineReply(t, c[1])) // client 0 gets its neighbour's reply
	sw.deliver(c[1], genuineReply(t, c[1]))
	sw.deliver(c[2], prev) // a stale reply is not an answer for round 6
	sw.deliver(c[3], genuineReply(t, c[3]))
	sw.deliver(c[3], genuineReply(t, c[3])) // a duplicate fails too
	tl = sw.finish(tl)
	if tl.ok != 2 {
		t.Errorf("ok = %d, want 2 (clients 1 and 3)", tl.ok)
	}
	// Client 0's wrong reply, client 2's missing reply, client 3's
	// duplicate.
	if tl.failed != 3 {
		t.Errorf("failed = %d, want 3; errors: %v", tl.failed, tl.errs)
	}
	if got := sw.stale.Load(); got != 1 {
		t.Errorf("stale replies = %d, want 1", got)
	}
}

func TestWrongDialAckFailsTheOp(t *testing.T) {
	pubs, _, err := mixnet.NewChainKeys(servers)
	if err != nil {
		t.Fatal(err)
	}
	sw := newSwarm(workload{name: "dialers", clients: 3, dial: true, dialers: 1}, 1, pubs)
	if err := sw.prepare(2); err != nil {
		t.Fatal(err)
	}
	tl := sw.begin(2)
	ack := func(m uint32) *wire.Message {
		return &wire.Message{Kind: wire.KindReply, Proto: wire.ProtoDial, Round: 2, M: m}
	}
	sw.deliver(sw.clients[0], ack(1))
	sw.deliver(sw.clients[1], ack(4))
	tl = sw.finish(tl)
	if tl.ok != 1 || tl.failed != 2 {
		t.Errorf("ok, failed = %d, %d; want 1, 2 (a wrong bucket count and a missing ack)", tl.ok, tl.failed)
	}
}

// spec is BENCHMARK.json's metric list.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestShortRunPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	slices.Sort(names)
	slices.Sort(have)
	if !slices.Equal(names, have) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, have)
	}
	want := [2]map[string]string{{}, {}}
	for _, m := range sp.EndToEnd {
		want[0][m.Name] = m.Unit
	}
	for _, m := range sp.PerLayer {
		want[1][m.Name] = m.Unit
	}
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			var out bytes.Buffer
			ok, err := run(options{
				workload: w.name, seed: 3, seconds: 0.2, trace: trace == 1,
				stateRoot: t.TempDir(), setupReps: 1, probeOps: 4,
			}, &out)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.name, trace, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				t.Fatalf("%s trace=%d: last line: %v", w.name, trace, err)
			}
			if !ok || !res.Correct || res.Failed != 0 || res.Attempted < minRounds*w.clients {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d\n%s", w.name, trace, res.Correct, res.Attempted, res.Failed, lines[0])
			}
			for name, unit := range want[trace] {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%d: metric %s missing", w.name, trace, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace=%d: %s unit %q, want %q", w.name, trace, name, m.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[trace][name]; !ok {
					t.Errorf("%s trace=%d: metric %s is not in BENCHMARK.json", w.name, trace, name)
				}
			}
		}
	}
}
