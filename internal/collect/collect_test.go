package collect

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"vuvuzela/internal/wire"
)

// closedNow reports whether ch is already closed.
func closedNow(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// TestRound drives the snapshot membership state machine through every
// transition the coordinator and the frontends rely on. Members 0–2 are
// the snapshot; member -1 is a connection that joined after it. Each
// member submits one onion carrying its own index, so the test can see
// that Finalize reports snapshot order, not arrival order.
func TestRound(t *testing.T) {
	type step struct {
		op     string // "record", "drop", "abandon" or "finalize"
		member int
		want   error // Record's result
		done   bool  // whether Done is closed after the step
	}
	cases := []struct {
		name  string
		steps []step
		// want lists the members Finalize reports, in snapshot order;
		// abandoned rounds report nothing.
		want      []int
		abandoned bool
	}{
		{
			name: "last member fires done; snapshot order",
			steps: []step{
				{op: "record", member: 2},
				{op: "record", member: 0},
				{op: "record", member: 1, done: true},
			},
			want: []int{0, 1, 2},
		},
		{
			name: "duplicate rejected",
			steps: []step{
				{op: "record", member: 0},
				{op: "record", member: 0, want: errDuplicate},
			},
			want: []int{0},
		},
		{
			name: "late joiner rejected",
			steps: []step{
				{op: "record", member: -1, want: errNotMember},
				{op: "record", member: 0},
				{op: "record", member: 1},
				{op: "record", member: 2, done: true},
			},
			want: []int{0, 1, 2},
		},
		{
			name: "drop before submission stops waiting for the member",
			steps: []step{
				{op: "record", member: 0},
				{op: "drop", member: 1},
				{op: "record", member: 1, want: errNotMember},
				{op: "record", member: 2, done: true},
			},
			want: []int{0, 2},
		},
		{
			name: "drop after submission keeps the slot",
			steps: []step{
				{op: "record", member: 1},
				{op: "drop", member: 1},
				{op: "record", member: 0},
				{op: "record", member: 2, done: true},
			},
			want: []int{0, 1, 2},
		},
		{
			name: "drop of the last outstanding member fires done",
			steps: []step{
				{op: "record", member: 0},
				{op: "record", member: 1},
				{op: "drop", member: -1},
				{op: "drop", member: 2, done: true},
			},
			want: []int{0, 1},
		},
		{
			name: "closed after finalize",
			steps: []step{
				{op: "record", member: 0},
				{op: "finalize"},
				{op: "record", member: 1, want: errRoundClosed},
				{op: "drop", member: 2},
				{op: "abandon"},
			},
			want: []int{0},
		},
		{
			name: "abandon wakes the waiter and records nothing",
			steps: []step{
				{op: "record", member: 0},
				{op: "abandon", done: true},
				{op: "record", member: 1, want: errRoundClosed, done: true},
				{op: "drop", member: 2, done: true},
			},
			abandoned: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			snapshot := []*Conn{new(Conn), new(Conn), new(Conn)}
			late := new(Conn)
			conn := func(i int) *Conn {
				if i < 0 {
					return late
				}
				return snapshot[i]
			}
			r := NewRound(wire.ProtoConvo, 7, 1, snapshot)
			for i, s := range tc.steps {
				switch s.op {
				case "record":
					if err := r.Record(conn(s.member), [][]byte{{byte(s.member)}}); !errors.Is(err, s.want) {
						t.Fatalf("step %d: Record = %v, want %v", i, err, s.want)
					}
				case "drop":
					r.Drop(conn(s.member))
				case "abandon":
					r.Abandon()
				case "finalize":
					if _, ok := r.Finalize(); !ok {
						t.Fatalf("step %d: Finalize reported an abandoned round", i)
					}
				}
				if s.op != "finalize" && closedNow(r.Done()) != s.done {
					t.Fatalf("step %d (%s %d): done = %v, want %v", i, s.op, s.member, !s.done, s.done)
				}
			}

			subs, ok := r.Finalize()
			if ok == tc.abandoned {
				t.Fatalf("Finalize ok = %v, abandoned = %v", ok, tc.abandoned)
			}
			if tc.abandoned {
				if subs != nil {
					t.Fatalf("abandoned round returned %v", subs)
				}
				return
			}
			var got []int
			for i, sub := range subs {
				if sub == nil {
					continue
				}
				if len(sub) != 1 || sub[0][0] != byte(i) {
					t.Fatalf("member %d submission = %v", i, sub)
				}
				got = append(got, i)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("finalized members %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("finalized members %v, want %v", got, tc.want)
				}
			}
			if n := r.Submitted(); n != len(tc.want) {
				t.Fatalf("Submitted = %d, want %d", n, len(tc.want))
			}
		})
	}
}

// TestRoundEmpty: a round with no members is complete at once, and an
// empty submission (a frontend's empty partial batch) still counts.
func TestRoundEmpty(t *testing.T) {
	if r := NewRound(wire.ProtoDial, 1, 1, nil); !closedNow(r.Done()) {
		t.Fatal("memberless round not done at once")
	}
	front := new(Conn)
	r := NewRound(wire.ProtoConvo, 1, 1, []*Conn{front})
	if err := r.Record(front, nil); err != nil {
		t.Fatal(err)
	}
	if !closedNow(r.Done()) {
		t.Fatal("empty submission did not complete the round")
	}
	if err := r.Record(front, nil); !errors.Is(err, errDuplicate) {
		t.Fatalf("second empty submission: %v, want errDuplicate", err)
	}
	subs, _ := r.Finalize()
	if subs[0] == nil || len(subs[0]) != 0 {
		t.Fatalf("empty submission finalized as %v", subs[0])
	}
}

// TestRoundConcurrent: submissions, drops and an Abandon or Finalize
// racing from many goroutines leave the round consistent — Done closes
// exactly once, and every submission Finalize reports was recorded.
func TestRoundConcurrent(t *testing.T) {
	const n = 64
	for _, end := range []string{"abandon", "finalize", "none"} {
		snapshot := make([]*Conn, n)
		for i := range snapshot {
			snapshot[i] = new(Conn)
		}
		r := NewRound(wire.ProtoConvo, 1, 1, snapshot)
		recorded := make([]bool, n)
		var wg sync.WaitGroup
		for i, c := range snapshot {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if i%2 == 0 {
					recorded[i] = r.Record(c, [][]byte{{byte(i)}}) == nil
				}
				r.Drop(c)
			}()
		}
		switch end {
		case "abandon":
			r.Abandon()
		case "finalize":
			r.Finalize()
		}
		wg.Wait()
		if end != "finalize" {
			<-r.Done() // every member is in, dropped, or the round abandoned
		}
		subs, ok := r.Finalize()
		if ok == (end == "abandon") {
			t.Fatalf("%s: Finalize ok = %v", end, ok)
		}
		for i, sub := range subs {
			if (sub != nil) != recorded[i] {
				t.Fatalf("%s: member %d finalized %v, recorded %v", end, i, sub, recorded[i])
			}
		}
	}
}

// pipeConn returns a Conn over one end of an in-memory pipe and the
// peer's end.
func pipeConn(t *testing.T, depth int) (*Conn, *wire.Conn) {
	t.Helper()
	a, b := net.Pipe()
	c := NewConn(wire.NewConn(a), depth)
	peer := wire.NewConn(b)
	t.Cleanup(func() {
		c.Close()
		peer.Close()
	})
	return c, peer
}

// TestConnOverflowCloses: a peer that stops reading holds at most one
// message in the writer plus depth in the queue; the next Send closes
// the connection instead of waiting.
func TestConnOverflowCloses(t *testing.T) {
	for _, depth := range []int{1, 4} {
		c, peer := pipeConn(t, depth)
		ann := &wire.Message{Kind: wire.KindAnnounce, Proto: wire.ProtoConvo, Round: 1}
		sent := 0
		for c.Send(ann) == nil {
			sent++
			if sent > depth+1 {
				t.Fatalf("depth %d: %d sends accepted by a peer that never reads", depth, sent)
			}
		}
		if !closedNow(c.Closed()) {
			t.Fatalf("depth %d: overflow did not close the connection", depth)
		}
		if err := c.Send(ann); !errors.Is(err, errClosed) {
			t.Fatalf("depth %d: Send after close = %v, want errClosed", depth, err)
		}
		c.Close() // idempotent
		for {
			if _, err := peer.Recv(); err != nil {
				break // the peer sees the close
			}
		}
	}
}

// TestConnDelivers: queued messages reach a reading peer in order.
func TestConnDelivers(t *testing.T) {
	c, peer := pipeConn(t, ClientQueue)
	for round := uint64(1); round <= 3; round++ {
		if err := c.Send(&wire.Message{Kind: wire.KindReply, Proto: wire.ProtoConvo, Round: round}); err != nil {
			t.Fatal(err)
		}
	}
	for round := uint64(1); round <= 3; round++ {
		m, err := peer.Recv()
		if err != nil || m.Round != round {
			t.Fatalf("recv: %+v err=%v, want round %d", m, err, round)
		}
	}
}

// TestServeClient covers the client submission loop shared by the
// coordinator and the frontends. Each case sends its frames over a pipe
// and then either hangs up or, for a malformed submission, waits for the
// server to hang up; the loop handles frames in order, so once it
// returns every frame has been seen.
func TestServeClient(t *testing.T) {
	const round = 5
	submit := func(r uint64, onions int) *wire.Message {
		return &wire.Message{Kind: wire.KindSubmit, Proto: wire.ProtoConvo, Round: r, Body: make([][]byte, onions)}
	}
	cases := []struct {
		name   string
		member bool
		msgs   []*wire.Message
		// serverCloses: a malformed submission makes the server hang up.
		serverCloses  bool
		wantSubmitted int
		// wantDone: Done is closed once the client is gone — by its
		// submission or its drop. A late joiner leaves the real member
		// outstanding.
		wantDone bool
	}{
		{name: "member submission recorded", member: true, msgs: []*wire.Message{submit(round, 1)}, wantSubmitted: 1, wantDone: true},
		{name: "duplicate ignored, connection kept", member: true, msgs: []*wire.Message{submit(round, 1), submit(round, 1)}, wantSubmitted: 1, wantDone: true},
		{name: "stale round and other kinds ignored", member: true, msgs: []*wire.Message{
			submit(round-1, 1),
			{Kind: wire.KindAnnounce, Proto: wire.ProtoConvo, Round: round},
			{Kind: wire.KindSubmit, Proto: wire.ProtoDial, Round: round, Body: make([][]byte, 1)},
		}, wantDone: true},
		{name: "wrong onion count drops the client", member: true, msgs: []*wire.Message{submit(round, 2)}, serverCloses: true, wantDone: true},
		{name: "disconnect before submitting drops the member", member: true, wantDone: true},
		{name: "late joiner not counted", msgs: []*wire.Message{submit(round, 1)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, peer := pipeConn(t, ClientQueue)
			snapshot := []*Conn{new(Conn)}
			if tc.member {
				snapshot[0] = c
			}
			r := NewRound(wire.ProtoConvo, round, 1, snapshot)
			open := func(p wire.Proto) *Round {
				if p == wire.ProtoConvo {
					return r
				}
				return nil
			}
			unregistered := false
			left := make(chan struct{})
			go func() {
				defer close(left)
				ServeClient(c, open, func(got *Conn) { unregistered = got == c })
			}()

			for _, m := range tc.msgs {
				if err := peer.Send(m); err != nil {
					t.Fatal(err)
				}
			}
			if !tc.serverCloses {
				peer.Close()
			}
			select {
			case <-left:
			case <-time.After(5 * time.Second):
				t.Fatal("client loop never returned")
			}
			if !unregistered || !closedNow(c.Closed()) {
				t.Fatalf("departed client: unregistered %v, closed %v", unregistered, closedNow(c.Closed()))
			}
			if n := r.Submitted(); n != tc.wantSubmitted {
				t.Fatalf("Submitted = %d, want %d", n, tc.wantSubmitted)
			}
			if closedNow(r.Done()) != tc.wantDone {
				t.Fatalf("done = %v, want %v", !tc.wantDone, tc.wantDone)
			}
		})
	}
}
