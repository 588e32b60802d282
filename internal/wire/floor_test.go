//edmlint:allow walltime the Conn floor tests wait on a real retry timer

package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"
)

// reqDatagram hand-encodes a one-byte RREQ with the given ID and ack floor.
func reqDatagram(t testing.TB, id, floor uint32) []byte {
	t.Helper()
	b, err := (&Msg{Kind: KindRREQ, ID: id, Count: 1, Floor: floor}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// taggingHandler counts executions per ID and tags each response with a
// global execution number, so a re-execution is distinguishable from a
// replay of the cached reply.
type taggingHandler struct {
	mu    sync.Mutex
	n     uint64
	execs map[uint32]int
}

func (h *taggingHandler) handle(m, resp *Msg) {
	h.mu.Lock()
	h.n++
	h.execs[m.ID]++
	n := h.n
	h.mu.Unlock()
	resp.Data = binary.LittleEndian.AppendUint64(resp.Data[:0], n)
}

func (h *taggingHandler) count(id uint32) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.execs[id]
}

// TestResponderReplayOutlivesWindowOfLaterIDs: while the client's floor
// holds at X, no number of later IDs may push X's cached reply out — a
// retransmission of X replays it byte-identically and X executes once. A
// count-based cache of DefaultResponderWindow entries fails this.
func TestResponderReplayOutlivesWindowOfLaterIDs(t *testing.T) {
	const x = 7
	var mu sync.Mutex
	var sent [][]byte
	h := &taggingHandler{execs: map[uint32]int{}}
	r := NewResponder(collectPipe{&mu, &sent}, ResponderConfig{}, h.handle)

	r.Deliver(reqDatagram(t, x, x))
	if len(sent) != 1 {
		t.Fatalf("%d replies to the first request, want 1", len(sent))
	}
	first := sent[0]
	for id := uint32(x + 1); id <= x+DefaultResponderWindow+100; id++ {
		r.Deliver(reqDatagram(t, id, x))
	}
	sent = sent[:0]
	r.Deliver(reqDatagram(t, x, x))
	if n := h.count(x); n != 1 {
		t.Fatalf("ID %d executed %d times, want 1", x, n)
	}
	if len(sent) != 1 || !bytes.Equal(sent[0], first) {
		t.Fatalf("retransmission got %d replies, want one byte-identical replay", len(sent))
	}
	st := r.Stats()
	if st.Ahead != 101 {
		t.Errorf("Ahead = %d, want 101 (IDs at or past floor+window dropped)", st.Ahead)
	}
	if n := h.count(x + DefaultResponderWindow); n != 0 {
		t.Errorf("ID at floor+window executed %d times, want dropped", n)
	}
}

// TestResponderDropsBelowFloor: once the floor passes an ID its reply is
// gone, and a late duplicate is dropped — not executed a second time.
func TestResponderDropsBelowFloor(t *testing.T) {
	var mu sync.Mutex
	var sent [][]byte
	h := &taggingHandler{execs: map[uint32]int{}}
	r := NewResponder(collectPipe{&mu, &sent}, ResponderConfig{}, h.handle)

	r.Deliver(reqDatagram(t, 5, 5))
	r.Deliver(reqDatagram(t, 6, 6)) // the client retired 5
	r.mu.Lock()
	_, cached := r.cache[5]
	r.mu.Unlock()
	if cached {
		t.Fatal("reply of ID 5 still cached after the floor passed it")
	}
	r.Deliver(reqDatagram(t, 5, 5)) // late duplicate, stale floor
	if n := h.count(5); n != 1 {
		t.Fatalf("ID 5 executed %d times, want 1", n)
	}
	if len(sent) != 2 {
		t.Fatalf("%d replies, want 2 (the stale duplicate gets none)", len(sent))
	}
	if st := r.Stats(); st.Stale != 1 || st.Duplicates != 0 {
		t.Fatalf("stats %+v, want 1 stale drop and no replay", st)
	}
}

// TestResponderEvictedRunningEntryNotRecycled: an entry the floor passes
// while its handler still runs leaves the cache, but its storage must not
// be handed to another ID before that handler has finished and sent.
func TestResponderEvictedRunningEntryNotRecycled(t *testing.T) {
	var mu sync.Mutex
	var sent [][]byte
	started := map[uint32]chan struct{}{0: make(chan struct{}), 2: make(chan struct{})}
	release := map[uint32]chan struct{}{0: make(chan struct{}), 2: make(chan struct{})}
	handler := func(m, resp *Msg) {
		if ch, ok := started[m.ID]; ok {
			close(ch)
			<-release[m.ID]
		}
		resp.Data = binary.LittleEndian.AppendUint32(resp.Data[:0], m.ID)
	}
	r := NewResponder(collectPipe{&mu, &sent}, ResponderConfig{}, handler)
	deliverAsync := func(b []byte) chan struct{} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			r.Deliver(b)
		}()
		return done
	}

	done0 := deliverAsync(reqDatagram(t, 0, 0))
	<-started[0]
	r.mu.Lock()
	e0 := r.cache[0]
	r.mu.Unlock()
	r.Deliver(reqDatagram(t, 1, 1)) // floor passes ID 0 mid-handler
	done2 := deliverAsync(reqDatagram(t, 2, 1))
	<-started[2]
	r.mu.Lock()
	e2 := r.cache[2]
	evicted, refs := e0.evicted, e0.refs
	_, still := r.cache[0]
	r.mu.Unlock()
	if still || !evicted || refs != 1 {
		t.Fatalf("entry 0: cached %v evicted %v refs %d, want out of the cache, pinned by its handler", still, evicted, refs)
	}
	if e2 == e0 {
		t.Fatal("ID 2 was given the entry of ID 0 while ID 0's handler ran")
	}
	close(release[0])
	<-done0 // ID 0 replied; ID 2 still running
	r.mu.Lock()
	filled2, enc2 := e2.done, len(e2.enc)
	r.mu.Unlock()
	if filled2 || enc2 != 0 {
		t.Fatalf("ID 2's entry done=%v with %d encoded bytes before its handler returned", filled2, enc2)
	}
	close(release[2])
	<-done2
	mu.Lock()
	defer mu.Unlock()
	for _, b := range sent {
		m, err := Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		if got := binary.LittleEndian.Uint32(m.Data); got != m.ID {
			t.Fatalf("reply for ID %d carries ID %d's payload", m.ID, got)
		}
	}
	if len(sent) != 3 {
		t.Fatalf("%d replies, want 3", len(sent))
	}
}

// lastSent decodes the most recent datagram a collectPipe recorded.
func lastSent(t *testing.T, mu *sync.Mutex, sent *[][]byte) *Msg {
	t.Helper()
	mu.Lock()
	defer mu.Unlock()
	m, err := Decode((*sent)[len(*sent)-1])
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestConnFloor: the floor a Conn stamps is its lowest pending ID through
// out-of-order completions, corked calls, encode failures, Abort and uint32
// wrap (timeouts: TestConnFloorTimeout).
func TestConnFloor(t *testing.T) {
	var mu sync.Mutex
	var sent [][]byte
	c := NewConn(collectPipe{&mu, &sent}, ConnConfig{RetryTimeout: time.Minute})
	defer c.Close()
	c.mu.Lock()
	c.nextID, c.floor = 0xFFFFFFFE, 0xFFFFFFFE
	c.mu.Unlock()
	nop := func(*Msg, error) {}
	call := func(wantID, wantFloor uint32) {
		t.Helper()
		id, err := c.Call(&Msg{Kind: KindRREQ, Count: 1}, nop)
		if err != nil {
			t.Fatal(err)
		}
		if id != wantID {
			t.Fatalf("call got ID %#x, want %#x", id, wantID)
		}
		if m := lastSent(t, &mu, &sent); m.ID != id || m.Floor != wantFloor {
			t.Fatalf("request ID %#x carries floor %#x, want %#x", m.ID, m.Floor, wantFloor)
		}
	}
	respond := func(id uint32) {
		t.Helper()
		b, err := (&Msg{Kind: KindRRESP, ID: id}).Encode()
		if err != nil {
			t.Fatal(err)
		}
		c.Deliver(b)
	}

	call(0xFFFFFFFE, 0xFFFFFFFE)
	call(0xFFFFFFFF, 0xFFFFFFFE)
	call(0, 0xFFFFFFFE)
	respond(0xFFFFFFFF) // out of order: the oldest still pends
	respond(0)
	call(1, 0xFFFFFFFE)
	respond(0xFFFFFFFE) // floor steps over the retired 0xFFFFFFFF and 0
	call(2, 1)

	// Corked calls are pending from submission: they hold the floor
	// although no datagram has left yet.
	c.Cork()
	if _, err := c.Call(&Msg{Kind: KindRREQ, Count: 1}, nop); err != nil { // ID 3
		t.Fatal(err)
	}
	respond(1)
	respond(2)
	c.Uncork()
	if m := lastSent(t, &mu, &sent); m.ID != 3 || m.Floor != 1 {
		t.Fatalf("flushed corked request ID %d floor %d, want ID 3 stamped at submit with floor 1", m.ID, m.Floor)
	}
	call(4, 3)

	// An encode failure spends an ID that never pends.
	if _, err := c.Call(&Msg{Kind: KindWREQ, Data: make([]byte, MaxData+1)}, nop); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize call: %v, want ErrTooLarge", err)
	}
	respond(3)
	respond(4)
	call(6, 6)

	// Abort retires everything.
	c.Abort(nil)
	call(7, 7)
	if c.Pending() != 1 {
		t.Fatalf("pending %d, want 1", c.Pending())
	}
}

// TestConnFloorTimeout: a call that exhausts its retry budget releases
// the floor.
func TestConnFloorTimeout(t *testing.T) {
	var mu sync.Mutex
	var sent [][]byte
	c := NewConn(collectPipe{&mu, &sent}, ConnConfig{RetryTimeout: time.Millisecond, MaxRetries: -1})
	defer c.Close()
	errs := make(chan error, 1)
	if _, err := c.Call(&Msg{Kind: KindRREQ, Count: 1}, func(_ *Msg, err error) { errs <- err }); err != nil {
		t.Fatal(err)
	}
	if err := <-errs; !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
	if _, err := c.Call(&Msg{Kind: KindRREQ, Count: 1}, func(*Msg, error) {}); err != nil {
		t.Fatal(err)
	}
	if m := lastSent(t, &mu, &sent); m.ID != 1 || m.Floor != 1 {
		t.Fatalf("after the timeout: ID %d floor %d, want floor 1", m.ID, m.Floor)
	}
}

// TestConnHoldsCallsPastWindow: a call that would run DefaultResponderWindow
// or more past the floor is not sent — the server would drop it — but held
// until the floor advances, then sent with the advanced floor. Later calls
// queue behind it in ID order.
func TestConnHoldsCallsPastWindow(t *testing.T) {
	var mu sync.Mutex
	var sent [][]byte
	c := NewConn(collectPipe{&mu, &sent}, ConnConfig{RetryTimeout: time.Minute})
	defer c.Close()
	nop := func(*Msg, error) {}
	for i := 0; i <= DefaultResponderWindow+1; i++ { // IDs 0 .. window+1
		if _, err := c.Call(&Msg{Kind: KindRREQ, Count: 1}, nop); err != nil {
			t.Fatal(err)
		}
	}
	sentIDs := func() []uint32 {
		mu.Lock()
		defer mu.Unlock()
		var ids []uint32
		for _, b := range sent {
			m, err := Decode(b)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, m.ID)
		}
		return ids
	}
	if ids := sentIDs(); len(ids) != DefaultResponderWindow || ids[len(ids)-1] != DefaultResponderWindow-1 {
		t.Fatalf("sent %d requests (last ID %d), want IDs 0..%d with the rest held", len(ids), ids[len(ids)-1], DefaultResponderWindow-1)
	}
	b, err := (&Msg{Kind: KindRRESP, ID: 0}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	c.Deliver(b) // floor 0 -> 1 admits exactly one held call
	ids := sentIDs()
	if len(ids) != DefaultResponderWindow+1 || ids[len(ids)-1] != DefaultResponderWindow {
		t.Fatalf("after the floor advanced: %d sent, last ID %d; want ID %d released alone", len(ids), ids[len(ids)-1], DefaultResponderWindow)
	}
	if m := lastSent(t, &mu, &sent); m.Floor != 1 {
		t.Fatalf("released call carries floor %d, want the advanced floor 1", m.Floor)
	}
	if c.Pending() != DefaultResponderWindow+1 {
		t.Fatalf("pending %d, want %d (the held call still counts)", c.Pending(), DefaultResponderWindow+1)
	}
}
