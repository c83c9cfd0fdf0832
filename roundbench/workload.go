package main

import "fmt"

// workload is one deployment shape and traffic mix. Every workload runs
// three chain servers with noise.Fixed conversation noise (paper §8.1),
// so each round carries the same onion count and no Laplace draw adds
// variance.
type workload struct {
	name string
	// frontends is the number of entry frontends; 0 puts every client
	// directly on the coordinator.
	frontends int
	// clients is the number of swarm clients. Convo clients talk in
	// pairs (0,1), (2,3), ...
	clients int
	// mu is the fixed conversation noise per mixing server: µ single
	// accesses and µ paired accesses, 2µ noise onions per server.
	mu int
	// dial runs dialing rounds instead of conversation rounds.
	dial bool
	// dialers is how many clients send a real invitation in each dial
	// round; the rest send idle dial requests.
	dialers int
}

// servers is the chain length of every workload.
const servers = 3

var workloads = []workload{
	// Client onions dominate: unwraps, reply seal, frontend collection,
	// fan-out and transport bytes do most of the work.
	{name: "convo-users", frontends: 2, clients: 192, mu: 8},
	// The opposite mix: noise generation, noise wrapping, downstream
	// unwraps and shuffle dominate; the entry tier is nearly idle.
	{name: "convo-noise", clients: 16, mu: 128},
	// A one-way round (no reply seal, no fan-out), dial.Service instead
	// of the exchange, direct clients; ~5% send real invitations.
	{name: "dial", clients: 192, dial: true, dialers: 10},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// noisePerServer is the number of conversation noise onions each mixing
// server adds per round: µ singles plus ⌈µ/2⌉ pairs (convo.NoiseGen).
func (w workload) noisePerServer() int {
	if w.dial {
		return 0
	}
	return w.mu + 2*((w.mu+1)/2)
}

// hopBatch returns the number of onions server i receives in a round.
func (w workload) hopBatch(i int) int {
	return w.clients + i*w.noisePerServer()
}
