// Package collect is the entry tier's collection core (paper §7): the one
// implementation of "announce a round, take exactly one fixed-size
// request from each client, hand the replies back" that the
// coordinator's direct-client listener and every entry frontend share.
//
// It holds three pieces:
//
//   - Conn: a wire connection behind a bounded outbound queue drained by
//     one writer goroutine. A peer that overflows its queue is closed,
//     never waited on — the entry-server DoS resilience §9 calls for.
//   - Round: one round's announce-time snapshot membership. Late
//     joiners wait for the next round, a member that disconnects before
//     submitting no longer holds the round open, and each member
//     submits at most once.
//   - ServeClient: the client submission loop, which routes each
//     wire.KindSubmit to the round open for its protocol.
//
// The coordinator's frontend pipes are round members too, but they
// speak wire.KindFrontBatch, so the coordinator runs its own small loop
// for them and shares only Conn, Round and Leave.
package collect

import (
	"errors"
	"sync"

	"vuvuzela/internal/wire"
)

// ClientQueue is the outbound queue depth of a client connection. Each
// round in flight sends a client one announcement and one reply, so even
// wire.MaxRoundsInFlight pipelined rounds leave room to spare: only a
// client that has stopped reading fills it.
const ClientQueue = 64

// errClosed is returned by Send on a closed connection, including one
// that Send itself just closed for overflowing its queue.
var errClosed = errors.New("collect: connection closed")

// Round-membership rejections from Round.Record. Callers treat them as
// per-message noise — drop the submission, keep the connection: none of
// them indicates a broken peer, just unfortunate timing.
var (
	errRoundClosed = errors.New("collect: round closed")
	errNotMember   = errors.New("collect: not in round snapshot")
	errDuplicate   = errors.New("collect: duplicate submission")
)

// protos lists the protocols an entry server collects rounds for.
var protos = [...]wire.Proto{wire.ProtoConvo, wire.ProtoDial}

// Conn is one peer of an entry server: a client, or a frontend pipe.
// Outbound messages go through a bounded queue drained by a dedicated
// writer goroutine, so one stalled peer can never block a round's
// announce or reply loop.
type Conn struct {
	conn   *wire.Conn
	out    chan *wire.Message
	closed chan struct{}
	once   sync.Once
}

// NewConn wraps conn with an outbound queue of depth messages and
// starts its writer.
func NewConn(conn *wire.Conn, depth int) *Conn {
	c := &Conn{
		conn:   conn,
		out:    make(chan *wire.Message, depth),
		closed: make(chan struct{}),
	}
	go c.writeLoop()
	return c
}

func (c *Conn) writeLoop() {
	for {
		select {
		case m := <-c.out:
			if err := c.conn.Send(m); err != nil {
				c.Close()
				return
			}
		case <-c.closed:
			return
		}
	}
}

// Send queues m for the writer. A full queue means the peer is not
// reading: Send closes the connection rather than wait for it. Either
// way a failed Send leaves the connection closed, so a caller with no
// per-peer state of its own to undo may ignore the error.
func (c *Conn) Send(m *wire.Message) error {
	select {
	case c.out <- m:
		return nil
	case <-c.closed:
		return errClosed
	default:
		c.Close()
		return errClosed
	}
}

// Recv reads the next message from the peer.
func (c *Conn) Recv() (*wire.Message, error) { return c.conn.Recv() }

// Close closes the connection and stops its writer. It is idempotent.
func (c *Conn) Close() {
	c.once.Do(func() {
		close(c.closed)
		c.conn.Close()
	})
}

// Closed returns a channel that is closed once the connection is.
func (c *Conn) Closed() <-chan struct{} { return c.closed }

// Round collects one announced round's submissions from the snapshot of
// connections taken at announce time. A connection that joins later
// waits for the next round: letting it submit here would complete the
// round early while a real member's onions were still in flight.
type Round struct {
	// Proto is the round's protocol.
	Proto wire.Proto
	// Number is the announced round number.
	Number uint64
	// PerClient is the fixed onion count each end client submits.
	PerClient int

	// done is closed once no member is outstanding, or on Abandon.
	done chan struct{}

	mu sync.Mutex
	// members maps each member still in the round to its snapshot index;
	// a member that drops before submitting leaves it.
	members map[*Conn]int
	// subs holds each member's submission at its snapshot index, nil
	// until it submits.
	subs [][][]byte
	// missing counts members that have neither submitted nor dropped.
	missing int
	// closed rejects Record and Drop once the round is finalized or
	// abandoned; abandoned makes Finalize return nothing.
	closed    bool
	abandoned bool
}

// NewRound opens a round whose members are snapshot.
func NewRound(proto wire.Proto, number uint64, perClient int, snapshot []*Conn) *Round {
	r := &Round{
		Proto:     proto,
		Number:    number,
		PerClient: perClient,
		done:      make(chan struct{}),
		members:   make(map[*Conn]int, len(snapshot)),
		subs:      make([][][]byte, len(snapshot)),
		missing:   len(snapshot),
	}
	for i, c := range snapshot {
		r.members[c] = i
	}
	if r.missing == 0 {
		close(r.done)
	}
	return r
}

// Done returns a channel that is closed once every member still in the
// round has submitted, or once the round is abandoned.
func (r *Round) Done() <-chan struct{} { return r.done }

// Record stores a member's submission: PerClient onions from a client,
// a whole partial batch from a frontend pipe. The last outstanding
// member's submission closes Done.
func (r *Round) Record(c *Conn, onions [][]byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return errRoundClosed
	}
	i, ok := r.members[c]
	if !ok {
		return errNotMember
	}
	if r.subs[i] != nil {
		return errDuplicate
	}
	if onions == nil {
		onions = [][]byte{} // an empty partial batch still counts as submitted
	}
	r.subs[i] = onions
	r.settle()
	return nil
}

// Drop removes a member that disconnected before submitting, so the
// round completes as soon as every remaining member is in instead of
// waiting out its budget on a dead connection. A member that already
// submitted keeps its slot: its onions are in the batch whether or not
// anyone is left to receive the reply.
func (r *Round) Drop(c *Conn) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	i, ok := r.members[c]
	if !ok || r.subs[i] != nil {
		return
	}
	delete(r.members, c)
	r.settle()
}

// settle accounts for one member leaving the outstanding set. r.mu must
// be held.
func (r *Round) settle() {
	r.missing--
	if r.missing == 0 {
		close(r.done)
	}
}

// Submitted reports how many members have recorded a submission.
func (r *Round) Submitted() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, s := range r.subs {
		if s != nil {
			n++
		}
	}
	return n
}

// Finalize closes the round and returns every member's submission at
// its snapshot index, nil for a member that did not submit. It returns
// false, and no submissions, if the round was abandoned.
func (r *Round) Finalize() ([][][]byte, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	if r.abandoned {
		return nil, false
	}
	return r.subs, true
}

// Abandon closes the round without building a batch, because the
// round's announcer has moved on or gone away. It wakes Done's waiters;
// from then on the round records nothing and Finalize returns nothing.
// Abandoning a finalized round does nothing.
func (r *Round) Abandon() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.closed, r.abandoned = true, true
	if r.missing > 0 {
		close(r.done)
	}
}

// ServeClient runs one client's submission loop until the client
// disconnects, then retires it with Leave. open returns the round now
// collecting for a protocol, or nil; unregister removes the client from
// its server's client set.
//
// A wire.KindSubmit for the open round is recorded; one for any other
// round is late and dropped, and the client retries next round. A
// submission with the wrong onion count closes the connection: the
// client is misconfigured, and ignoring it would leave it waiting
// forever for a reply that can never be addressed to it. Other message
// kinds are ignored.
func ServeClient(c *Conn, open func(wire.Proto) *Round, unregister func(*Conn)) {
	defer Leave(c, open, unregister)
	for {
		msg, err := c.Recv()
		if err != nil {
			return
		}
		if msg.Kind != wire.KindSubmit {
			continue
		}
		r := open(msg.Proto)
		if r == nil || r.Number != msg.Round {
			continue
		}
		if len(msg.Body) != r.PerClient {
			return
		}
		_ = r.Record(c, msg.Body)
	}
}

// Leave retires a departed connection: it unregisters c, so no later
// snapshot includes it, then closes it and drops it from every round
// open returns, so those rounds stop waiting for it.
func Leave(c *Conn, open func(wire.Proto) *Round, unregister func(*Conn)) {
	unregister(c)
	c.Close()
	for _, p := range protos {
		if r := open(p); r != nil {
			r.Drop(c)
		}
	}
}
