package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"vuvuzela/internal/convo"
	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/dial"
	"vuvuzela/internal/onion"
	"vuvuzela/internal/parallel"
	"vuvuzela/internal/transport"
	"vuvuzela/internal/wire"
)

// swarm is the benchmark's load generator: one wire connection per
// client to the entry tier, a reader goroutine per client that answers
// each announcement with the onion prepared for that round, and a
// verifier that checks every reply against what the client's partner
// sent. Onions are wrapped between rounds (prepare), never inside a
// timed window, with fresh ephemeral keys for every onion.
type swarm struct {
	w       workload
	proto   wire.Proto
	chain   []box.PublicKey
	clients []*client
	// rng draws message contents and dialers; prepare is its only user.
	rng *rand.Rand

	mu  sync.Mutex
	cur *tally
	// stale counts replies for a round other than the current one.
	stale atomic.Int64

	readers sync.WaitGroup
}

// client is one simulated user.
type client struct {
	idx  int
	pub  box.PublicKey
	priv box.PrivateKey
	// partner and secret are set for conversing clients.
	partner *client
	secret  *[32]byte
	conn    *wire.Conn
	// next is the submission prepared for the coming round; the reader
	// goroutine loads it on the announcement and on the reply.
	next atomic.Pointer[prepared]
}

// prepared is one client's submission for one round.
type prepared struct {
	round uint64
	onion []byte
	keys  []*[box.KeySize]byte
	// msg is what this client sends its partner; want is what the
	// partner sends back through the dead drop.
	msg, want []byte
}

// tally counts one round's ops: one op per client.
type tally struct {
	round  uint64
	seen   []bool
	left   int
	ok     int
	failed int
	// errs keeps the first few failures for the report.
	errs []string
	done chan struct{}
	end  time.Time
}

func newSwarm(w workload, seed uint64, chain []box.PublicKey) *swarm {
	s := &swarm{
		w:     w,
		proto: wire.ProtoConvo,
		chain: chain,
		rng:   rand.New(rand.NewPCG(seed, 0x726f756e6462656e)),
	}
	if w.dial {
		s.proto = wire.ProtoDial
	}
	for i := 0; i < w.clients; i++ {
		pub, priv := box.KeyPairFromSeed([]byte(fmt.Sprintf("roundbench/%d/client/%d", seed, i)))
		s.clients = append(s.clients, &client{idx: i, pub: pub, priv: priv})
	}
	if !w.dial {
		for i := 0; i+1 < len(s.clients); i += 2 {
			a, b := s.clients[i], s.clients[i+1]
			secret, err := convo.DeriveSecret(&a.priv, &b.pub)
			if err != nil {
				panic("roundbench: deriving a pair secret: " + err.Error())
			}
			a.partner, b.partner = b, a
			a.secret, b.secret = secret, secret
		}
	}
	return s
}

// connect dials every client to the entry tier, round-robin over addrs,
// and starts its reader.
func (s *swarm) connect(nw transport.Network, addrs []string) error {
	for i, c := range s.clients {
		raw, err := nw.Dial(addrs[i%len(addrs)])
		if err != nil {
			return fmt.Errorf("client %d: dialing %s: %w", i, addrs[i%len(addrs)], err)
		}
		c.conn = wire.NewConn(raw)
		s.readers.Add(1)
		go s.read(c)
	}
	return nil
}

// close disconnects every client and waits for the readers to exit.
func (s *swarm) close() {
	for _, c := range s.clients {
		if c.conn != nil {
			c.conn.Close()
		}
	}
	s.readers.Wait()
}

// read serves one client connection until it closes.
func (s *swarm) read(c *client) {
	defer s.readers.Done()
	for {
		msg, err := c.conn.Recv()
		if err != nil {
			return
		}
		if msg.Proto != s.proto {
			continue
		}
		switch msg.Kind {
		case wire.KindAnnounce:
			p := c.next.Load()
			if p == nil || p.round != msg.Round {
				// Nothing prepared for this round: the client sits it
				// out and its op fails when the round's tally closes.
				continue
			}
			if err := c.conn.Send(&wire.Message{
				Kind: wire.KindSubmit, Proto: s.proto, Round: msg.Round, Body: [][]byte{p.onion},
			}); err != nil {
				return
			}
		case wire.KindReply:
			s.deliver(c, msg)
		}
	}
}

// prepare builds and wraps every client's submission for round r.
func (s *swarm) prepare(r uint64) error {
	n := len(s.clients)
	payloads := make([][]byte, n)
	preps := make([]*prepared, n)
	for i := range preps {
		preps[i] = &prepared{round: r}
	}
	// Inputs are drawn sequentially from the seeded generator so the
	// same seed gives the same messages and dial targets.
	var recipients []*client
	if s.w.dial {
		recipients = make([]*client, n)
		for _, i := range s.rng.Perm(n)[:s.w.dialers] {
			j := s.rng.IntN(n - 1)
			if j >= i {
				j++
			}
			recipients[i] = s.clients[j]
		}
	} else {
		for _, p := range preps {
			p.msg = make([]byte, 1+s.rng.IntN(convo.MaxMessageLen))
			for k := range p.msg {
				p.msg[k] = byte(s.rng.Uint32())
			}
		}
		for i, c := range s.clients {
			if c.partner != nil {
				preps[i].want = preps[c.partner.idx].msg
			}
		}
	}
	err := parallel.ForErr(n, 0, func(i int) error {
		c := s.clients[i]
		if s.w.dial {
			var to *box.PublicKey
			if recipients[i] != nil {
				to = &recipients[i].pub
			}
			req, err := dial.BuildRequest(&c.pub, to, 1, nil)
			if err != nil {
				return err
			}
			payloads[i] = req.Marshal()
		} else {
			req, err := convo.BuildRequest(c.secret, r, &c.pub, preps[i].msg)
			if err != nil {
				return err
			}
			payloads[i] = req.Marshal()
		}
		o, keys, err := onion.Wrap(payloads[i], r, 0, s.chain, nil)
		if err != nil {
			return err
		}
		preps[i].onion, preps[i].keys = o, keys
		return nil
	})
	if err != nil {
		return fmt.Errorf("preparing round %d: %w", r, err)
	}
	for i, c := range s.clients {
		c.next.Store(preps[i])
	}
	return nil
}

// begin opens the tally for round r; replies for r are counted into it.
func (s *swarm) begin(r uint64) *tally {
	t := &tally{
		round: r,
		seen:  make([]bool, len(s.clients)),
		left:  len(s.clients),
		done:  make(chan struct{}),
	}
	s.mu.Lock()
	s.cur = t
	s.mu.Unlock()
	return t
}

// finish closes the current tally: every client that has not been
// counted yet failed (its reply is missing). It returns the tally.
func (s *swarm) finish(t *tally) *tally {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cur == t {
		s.cur = nil
	}
	if t.left > 0 {
		t.fail(t.left, fmt.Sprintf("%d replies missing", t.left))
		t.left = 0
		t.end = time.Now()
	}
	return t
}

// fail counts n failed ops and keeps the first few reasons.
func (t *tally) fail(n int, why string) {
	t.failed += n
	if len(t.errs) < 4 {
		t.errs = append(t.errs, fmt.Sprintf("round %d: %s", t.round, why))
	}
}

// deliver verifies one reply and counts it. A reply for a round other
// than the open one is stale; a second reply for the same client and
// round fails that client's op.
func (s *swarm) deliver(c *client, msg *wire.Message) {
	err := s.check(c, msg)
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.cur
	if t == nil || t.round != msg.Round {
		s.stale.Add(1)
		return
	}
	if t.seen[c.idx] {
		// A duplicate reply: the op was already counted once; count
		// the duplicate as a failure of its own.
		t.fail(1, fmt.Sprintf("client %d: duplicate reply", c.idx))
		return
	}
	t.seen[c.idx] = true
	t.left--
	if err != nil {
		t.fail(1, fmt.Sprintf("client %d: %v", c.idx, err))
	} else {
		t.ok++
	}
	if t.left == 0 {
		t.end = now
		close(t.done)
	}
}

var (
	errWrongRound = errors.New("reply for a round the client did not prepare")
	errBadReply   = errors.New("reply does not open under the client's keys")
	errNotPartner = errors.New("reply is not the partner's message")
)

// check verifies a reply against the client's prepared round: a convo
// reply must unwrap under the client's onion keys and carry exactly its
// partner's message for this round; a dial acknowledgement must name
// the round and the single bucket.
func (s *swarm) check(c *client, msg *wire.Message) error {
	p := c.next.Load()
	if p == nil || p.round != msg.Round {
		return errWrongRound
	}
	if s.w.dial {
		if msg.M != 1 || len(msg.Body) != 0 {
			return fmt.Errorf("dial ack with m=%d and %d body parts", msg.M, len(msg.Body))
		}
		return nil
	}
	if len(msg.Body) != 1 {
		return fmt.Errorf("convo reply with %d body parts", len(msg.Body))
	}
	inner, err := onion.UnwrapReply(msg.Body[0], msg.Round, 0, p.keys)
	if err != nil {
		return errBadReply
	}
	got, ok := convo.OpenReply(c.secret, msg.Round, &c.partner.pub, inner)
	if !ok || !bytes.Equal(got, p.want) {
		return errNotPartner
	}
	return nil
}
