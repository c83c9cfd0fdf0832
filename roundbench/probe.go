package main

import (
	"crypto/ecdh"
	"crypto/rand"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"vuvuzela/internal/convo"
	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/dial"
	"vuvuzela/internal/noise"
	"vuvuzela/internal/onion"
	"vuvuzela/internal/roundstate"
	"vuvuzela/internal/shuffle"
	"vuvuzela/internal/transport"
	"vuvuzela/internal/wire"
)

// probeReps is how many times each layer-cost probe is repeated; the
// reported figure is the median repetition.
const probeReps = 5

// probeRound is the round number the probes' onions and messages carry.
const probeRound = 7

// timeReps runs fn probeReps times after one warm-up call and returns the
// median duration in ns divided by per (the operations one call
// performs).
func timeReps(per int, fn func()) float64 {
	fn()
	ds := make([]float64, probeReps)
	for i := range ds {
		ds[i] = timeOnce(per, fn)
	}
	return median(ds)
}

// timeOnce returns fn's duration in ns divided by per.
func timeOnce(per int, fn func()) float64 {
	start := time.Now()
	fn()
	return float64(time.Since(start)) / float64(per)
}

// layerCosts times the public calls of every layer at the workload's
// shapes, single-threaded, and returns them keyed by metric name. Each
// per-onion probe times ops·probeReps calls.
func layerCosts(w workload, stateDir string, ops int) (map[string]metric, error) {
	m := make(map[string]float64)
	const round = probeRound
	pubs, privs := make([]box.PublicKey, servers), make([]box.PrivateKey, servers)
	for i := range pubs {
		var err error
		if pubs[i], privs[i], err = box.GenerateKey(nil); err != nil {
			return nil, err
		}
	}

	// The per-onion calls are timed one call at a time, interleaved, so
	// every kind sees the same machine load and the medians shrug off
	// preemption: a bare X25519 scalar multiplication on parsed keys
	// (the unit the onion costs are read in), box.Precompute,
	// onion.UnwrapLayer, a 3-layer onion.Wrap and onion.SealReply. Every
	// unwrap opens an onion no earlier call has seen, so no cache keyed
	// on repeated input can shorten it.
	curve := ecdh.X25519()
	sk, err := curve.GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	peer, err := curve.GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	payloadLen := convo.RequestSize
	if w.dial {
		payloadLen = dial.RequestSize
	}
	payload := make([]byte, payloadLen)
	reply := make([]byte, convo.SealedSize)
	n := ops * probeReps
	epubs := make([]box.PublicKey, n)
	onions := make([][]byte, n)
	for i := range onions {
		if epubs[i], _, err = box.GenerateKey(nil); err != nil {
			return nil, err
		}
		if onions[i], _, err = onion.Wrap(payload, round, 0, pubs, nil); err != nil {
			return nil, err
		}
	}
	var x, pre, unwrap, wrap, seal []float64
	runtime.GC()
	for i := 0; i < n; i++ {
		x = append(x, timeOnce(1, func() {
			if _, err := sk.ECDH(peer.PublicKey()); err != nil {
				panic(err)
			}
		}))
		pre = append(pre, timeOnce(1, func() {
			if _, err := box.Precompute(&epubs[i], &privs[0]); err != nil {
				panic(err)
			}
		}))
		var key *[box.KeySize]byte
		unwrap = append(unwrap, timeOnce(1, func() {
			if _, key, err = onion.UnwrapLayer(onions[i], &privs[0], round, 0); err != nil {
				panic(err)
			}
		}))
		wrap = append(wrap, timeOnce(servers, func() {
			if _, _, err := onion.Wrap(payload, round, 0, pubs, nil); err != nil {
				panic(err)
			}
		}))
		seal = append(seal, timeOnce(1, func() { onion.SealReply(reply, key, round, 0) }))
	}
	m["box.x25519_us"] = median(x) / 1e3
	m["box.precompute_us"] = median(pre) / 1e3
	m["onion.unwrap_us"] = median(unwrap) / 1e3
	m["onion.wrap_layer_us"] = median(wrap) / 1e3
	m["onion.seal_reply_us"] = median(seal) / 1e3
	m["onion.unwrap_x25519"] = median(unwrap) / median(x)
	m["onion.wrap_layer_x25519"] = median(wrap) / median(x)

	// Batch-shaped probes, one round's worth each, at the workload's
	// client count and µ, whether or not its rounds run the call: the
	// convo calls on dial measure what that many clients would cost.
	gen := convo.NoiseGen{Dist: noise.Fixed{N: w.mu}}
	m["convo.noise_gen_ms"] = ms(timeReps(1, func() { gen.Generate() }))
	exchange := lastHopRequests(w)
	m["convo.exchange_ms"] = ms(timeReps(1, func() { convo.Service{}.Process(round, exchange) }))
	dialReqs := make([][]byte, w.clients)
	for i := range dialReqs {
		var to *box.PublicKey
		if i < w.dialers {
			to = &pubs[0]
		}
		req, err := dial.BuildRequest(&pubs[1], to, 1, nil)
		if err != nil {
			return nil, err
		}
		dialReqs[i] = req.Marshal()
	}
	m["dial.process_ms"] = ms(timeReps(1, func() { dial.Service{}.Process(round, 1, dialReqs) }))

	// Both mixing servers shuffle their outgoing batch and unshuffle the
	// replies.
	m["shuffle.batch_ms"] = ms(timeReps(1, func() {
		for hop := 0; hop < servers-1; hop++ {
			b := make([][]byte, w.hopBatch(hop+1))
			p := shuffle.New(len(b), nil)
			p.Invert(p.Apply(b))
		}
	}))

	msgs := chainMessages(w)
	frames := make([][]byte, len(msgs))
	m["wire.encode_ms"] = ms(timeReps(1, func() {
		for i, msg := range msgs {
			frames[i] = msg.Encode()
		}
	}))
	m["wire.decode_ms"] = ms(timeReps(1, func() {
		for _, f := range frames {
			if _, err := wire.Decode(f); err != nil {
				panic(err)
			}
		}
	}))

	mbps, err := secureThroughput(frames[1])
	if err != nil {
		return nil, err
	}
	m["transport.secure_mb_per_s"] = mbps

	st, err := roundstate.OpenCounters(filepath.Join(stateDir, "probe.rounds"))
	if err != nil {
		return nil, err
	}
	defer st.Close()
	next := uint64(0)
	commitMS := make([]float64, 0, 4*probeReps)
	for i := 0; i < cap(commitMS); i++ {
		next++
		start := time.Now()
		if err := st.Commit(roundstate.ConvoCounter, next); err != nil {
			return nil, err
		}
		commitMS = append(commitMS, ms(float64(time.Since(start))))
	}
	m["roundstate.commit_ms"] = median(commitMS)

	out := make(map[string]metric, len(m))
	for name, v := range m {
		unit := "ms"
		switch {
		case strings.HasSuffix(name, "_us"):
			unit = "us"
		case strings.HasSuffix(name, "_x25519"):
			unit = "x25519"
		case strings.HasSuffix(name, "_mb_per_s"):
			unit = "MB/s"
		}
		out[name] = metric{v, unit}
	}
	return out, nil
}

// lastHopRequests builds the innermost requests the last server sees in
// one conversation round: one per client, paired by conversation, plus
// each mixing server's noise (singles and pairs).
func lastHopRequests(w workload) [][]byte {
	reqs := make([][]byte, 0, w.hopBatch(servers-1))
	for i := 0; i+1 < w.clients; i += 2 {
		var secret [32]byte
		if _, err := rand.Read(secret[:]); err != nil {
			panic(err)
		}
		for j := 0; j < 2; j++ {
			req, err := convo.BuildRequest(&secret, probeRound, &box.PublicKey{byte(j)}, []byte("x"))
			if err != nil {
				panic(err)
			}
			reqs = append(reqs, req.Marshal())
		}
	}
	for hop := 0; hop < servers-1; hop++ {
		reqs = append(reqs, convo.NoiseGen{Dist: noise.Fixed{N: w.mu}}.Generate()...)
	}
	return reqs
}

// chainMessages builds the wire messages of one round on the chain
// legs, with bodies of the real sizes: the batch into each server, and
// each server's reply batch (empty acknowledgements for dial rounds).
func chainMessages(w workload) []*wire.Message {
	inner := convo.RequestSize
	if w.dial {
		inner = dial.RequestSize
	}
	var msgs []*wire.Message
	for hop := 0; hop < servers; hop++ {
		body := make([][]byte, w.hopBatch(hop))
		for i := range body {
			body[i] = make([]byte, onion.Size(inner, servers-hop))
		}
		msgs = append(msgs, &wire.Message{Kind: wire.KindBatch, Proto: wire.ProtoConvo, Round: probeRound, Body: body})
	}
	for hop := 0; hop < servers; hop++ {
		reply := &wire.Message{Kind: wire.KindReplies, Proto: wire.ProtoConvo, Round: probeRound}
		if !w.dial {
			reply.Body = make([][]byte, w.hopBatch(hop))
			for i := range reply.Body {
				reply.Body[i] = make([]byte, onion.ReplySize(convo.SealedSize, servers-hop))
			}
		}
		msgs = append(msgs, reply)
	}
	return msgs
}

// secureThroughput pushes batch-sized writes through a transport.Secure
// pair over an in-memory pipe and returns MB/s (10^6 bytes per second),
// the median of probeReps runs.
func secureThroughput(batch []byte) (float64, error) {
	cpub, cpriv, err := box.GenerateKey(nil)
	if err != nil {
		return 0, err
	}
	spub, spriv, err := box.GenerateKey(nil)
	if err != nil {
		return 0, err
	}
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	client := transport.SecureClient(a, cpriv, spub)
	server := transport.SecureServer(b, spriv, []box.PublicKey{cpub})
	hs := make(chan error, 1)
	go func() { hs <- server.Handshake() }()
	if err := client.Handshake(); err != nil {
		return 0, fmt.Errorf("probe handshake: %w", err)
	}
	if err := <-hs; err != nil {
		return 0, fmt.Errorf("probe handshake: %w", err)
	}
	const writes = 16
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, len(batch))
		for i := 0; i < (probeReps+1)*writes; i++ {
			if _, err := io.ReadFull(server, buf); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	var werr error
	perWrite := timeReps(writes, func() {
		for i := 0; i < writes && werr == nil; i++ {
			_, werr = client.Write(batch)
		}
	})
	if werr != nil {
		a.Close() // unblocks the reader
	}
	rerr := <-done
	if werr != nil {
		return 0, werr
	}
	if rerr != nil {
		return 0, rerr
	}
	return float64(len(batch)) / perWrite * 1e3, nil
}
