package frontend_test

import (
	"context"
	"net"
	"testing"
	"time"

	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/frontend"
	"vuvuzela/internal/transport"
	"vuvuzela/internal/wire"
)

// fakeCoord is the coordinator's end of a frontend's pipe, driven by the
// test frame by frame.
type fakeCoord struct {
	pipe *wire.Conn
	fe   *frontend.Frontend
	net  *transport.Mem
	l    net.Listener
	priv box.PrivateKey
}

// newFakeCoord starts a frontend whose coordinator is the test itself
// and returns once the pipe is authenticated.
func newFakeCoord(t *testing.T) *fakeCoord {
	t.Helper()
	pub, priv, err := box.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	mem := transport.NewMem()
	lp, err := mem.Listen("coord")
	if err != nil {
		t.Fatal(err)
	}
	fe, err := frontend.New(frontend.Config{
		Net: mem, CoordAddr: "coord", CoordPub: pub,
		ReconnectDelay: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	lc, err := mem.Listen("fe")
	if err != nil {
		t.Fatal(err)
	}
	go fe.Serve(lc)
	ctx, cancel := context.WithCancel(context.Background())
	go fe.Run(ctx)
	fc := &fakeCoord{fe: fe, net: mem, l: lp, priv: priv}
	t.Cleanup(func() {
		cancel()
		fe.Close()
		lp.Close()
		lc.Close()
		fc.pipe.Close()
	})
	fc.accept(t)
	return fc
}

// accept takes the frontend's next pipe connection.
func (fc *fakeCoord) accept(t *testing.T) {
	t.Helper()
	raw, err := fc.l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	sec := transport.SecureServerAny(raw, fc.priv)
	if err := sec.Handshake(); err != nil {
		t.Fatal(err)
	}
	fc.pipe = wire.NewConn(sec)
}

// recvBatch reads the next frame on the pipe, which must be a partial
// batch for round.
func (fc *fakeCoord) recvBatch(t *testing.T, round uint64) *wire.Message {
	t.Helper()
	msg, err := fc.pipe.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Kind != wire.KindFrontBatch || msg.Round != round {
		t.Fatalf("pipe frame: kind %d round %d, want front batch for round %d", msg.Kind, msg.Round, round)
	}
	return msg
}

// announce sends a conversation announcement with a collection budget
// hint of budgetMS milliseconds.
func (fc *fakeCoord) announce(t *testing.T, round uint64, budgetMS uint32) {
	t.Helper()
	if err := fc.pipe.Send(&wire.Message{Kind: wire.KindAnnounce, Proto: wire.ProtoConvo, Round: round, M: 1, Bucket: budgetMS}); err != nil {
		t.Fatal(err)
	}
}

// recvAnnounce reads a relayed announcement for round from a client.
func recvAnnounce(t *testing.T, c *wire.Conn, round uint64) {
	t.Helper()
	ann, err := c.Recv()
	if err != nil || ann.Kind != wire.KindAnnounce || ann.Round != round {
		t.Fatalf("announce: %+v err=%v, want round %d", ann, err, round)
	}
}

// submit sends one opaque onion for round; the frontend checks only the
// onion count.
func submit(t *testing.T, c *wire.Conn, round uint64) {
	t.Helper()
	submitN(t, c, round, 1)
}

// submitN sends n opaque onions for round.
func submitN(t *testing.T, c *wire.Conn, round uint64, n int) {
	t.Helper()
	body := make([][]byte, n)
	for i := range body {
		body[i] = []byte{byte(round)}
	}
	if err := c.Send(&wire.Message{Kind: wire.KindSubmit, Proto: wire.ProtoConvo, Round: round, Body: body}); err != nil {
		t.Fatal(err)
	}
}

// TestSupersededRoundSendsNothing: when the coordinator announces a
// newer round while an older one is still collecting, the frontend
// abandons the older round. An abandoned round must forward nothing —
// before the fix, abandoning did not wake the collector, so after its
// budget the stale round's batch (holding a real client onion) still
// went out on the pipe, taking a queue slot and a reply-demux entry.
func TestSupersededRoundSendsNothing(t *testing.T) {
	fc := newFakeCoord(t)
	a := dialClient(t, fc.net, "fe", fc.fe.NumClients, 1)
	b := dialClient(t, fc.net, "fe", fc.fe.NumClients, 2)

	// Round 1 collects for 40 ms (4/5 of the hint); only a submits.
	fc.announce(t, 1, 50)
	recvAnnounce(t, a, 1)
	recvAnnounce(t, b, 1)
	submit(t, a, 1)

	// Round 2 supersedes it and completes at once.
	fc.announce(t, 2, 5000)
	for _, c := range []*wire.Conn{a, b} {
		recvAnnounce(t, c, 2)
		submit(t, c, 2)
	}

	// Round 3 is announced well after round 1's budget ran out, so any
	// batch round 1 was going to send is on the pipe before round 3's.
	<-time.After(300 * time.Millisecond)
	fc.announce(t, 3, 5000)
	for _, c := range []*wire.Conn{a, b} {
		recvAnnounce(t, c, 3)
		submit(t, c, 3)
	}

	var got []uint64
	for len(got) == 0 || got[len(got)-1] != 3 {
		msg, err := fc.pipe.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if msg.Kind != wire.KindFrontBatch {
			t.Fatalf("pipe frame kind %d, want front batch", msg.Kind)
		}
		if msg.Round != 1 && msg.M != 2 {
			t.Fatalf("round %d batch carries %d clients, want 2", msg.Round, msg.M)
		}
		got = append(got, msg.Round)
	}
	if len(got) != 2 || got[0] != 2 {
		t.Fatalf("batches forwarded for rounds %v, want [2 3]", got)
	}
}

// TestFrontendChurn runs the coordinator's churn cases through a
// frontend: a late joiner's submission does not count, a submission
// with the wrong onion count drops its client, and the round then
// closes early with only the remaining member. A round aborted by a
// pipe failure forwards nothing, and the reconnected pipe carries the
// next round normally.
func TestFrontendChurn(t *testing.T) {
	fc := newFakeCoord(t)
	a := dialClient(t, fc.net, "fe", fc.fe.NumClients, 1)
	b := dialClient(t, fc.net, "fe", fc.fe.NumClients, 2)

	fc.announce(t, 1, 5000)
	recvAnnounce(t, a, 1)
	recvAnnounce(t, b, 1)
	late := dialClient(t, fc.net, "fe", fc.fe.NumClients, 3)
	submit(t, late, 1)
	submitN(t, b, 1, 2) // wrong onion count
	if _, err := b.Recv(); err == nil {
		t.Fatal("client with a malformed submission still connected")
	}
	submit(t, a, 1)
	if batch := fc.recvBatch(t, 1); batch.M != 1 || len(batch.Body) != 1 {
		t.Fatalf("round 1 batch: %d clients, %d onions; want 1, 1", batch.M, len(batch.Body))
	}

	// Round 2 loses its pipe mid-collection: nothing is forwarded for
	// it, and round 3 on the new pipe collects both remaining clients.
	fc.announce(t, 2, 5000)
	recvAnnounce(t, a, 2)
	recvAnnounce(t, late, 2)
	submit(t, a, 2)
	fc.pipe.Close()
	fc.accept(t)
	fc.announce(t, 3, 5000)
	for _, c := range []*wire.Conn{a, late} {
		recvAnnounce(t, c, 3)
		submit(t, c, 3)
	}
	if batch := fc.recvBatch(t, 3); batch.M != 2 {
		t.Fatalf("round 3 batch: %d clients, want 2", batch.M)
	}
}
