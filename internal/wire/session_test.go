//edmlint:allow walltime these tests exercise real retransmission timers and session expiry

package wire

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestResponderEvictionKeepsInflight: an entry whose handler is still
// running keeps the client's ack floor at its ID, so later requests — each
// stamped with that floor — cannot evict it; its retransmission must wait
// for the running execution, not re-execute.
func TestResponderEvictionKeepsInflight(t *testing.T) {
	var sent [][]byte
	var mu sync.Mutex
	pipe := collectPipe{&mu, &sent}
	var executions atomic.Int32
	release := make(chan struct{})
	handler := func(m, _ *Msg) {
		executions.Add(1)
		if m.ID == 0 {
			<-release // first request stalls mid-execution
		}
	}
	r := NewResponder(pipe, ResponderConfig{}, handler)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.Deliver(reqDatagram(t, 0, 0)) // blocks in the handler
	}()
	for executions.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	// Later requests complete while ID 0 is still pending at the client,
	// so they carry floor 0.
	r.Deliver(reqDatagram(t, 1, 0))
	r.Deliver(reqDatagram(t, 2, 0))
	// A retransmission of ID 0 must hit the (in-flight) cache entry and
	// wait, not re-execute.
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.Deliver(reqDatagram(t, 0, 0))
	}()
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if n := executions.Load(); n != 3 {
		t.Fatalf("handler ran %d times, want 3 (IDs 0, 1, 2 once each)", n)
	}
	if st := r.Stats(); st.Duplicates != 1 {
		t.Fatalf("responder stats %+v, want 1 duplicate", st)
	}
}

// collectPipe records copies of sent datagrams.
type collectPipe struct {
	mu   *sync.Mutex
	sent *[][]byte
}

func (p collectPipe) Send(b []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	*p.sent = append(*p.sent, append([]byte(nil), b...))
	return nil
}

func (p collectPipe) Close() error { return nil }

// TestUDPSessionResetOnHello: a restarted client reusing its source port
// must get a fresh session — the old incarnation's reply cache would
// otherwise replay stale responses to the new message IDs.
func TestUDPSessionResetOnHello(t *testing.T) {
	executions := 0
	var mu sync.Mutex
	handler := func(m, resp *Msg) {
		mu.Lock()
		executions++
		n := executions
		mu.Unlock()
		if m.Kind == KindRREQ {
			// Tag the response with the execution count so a stale cached
			// replay is distinguishable from a fresh execution.
			resp.Data = append(resp.Data[:0], byte(n))
		}
	}
	server, err := ListenUDP("127.0.0.1:0", func(_ string, reply Pipe) func([]byte) {
		return NewResponder(reply, ResponderConfig{}, handler).Deliver
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	saddr, err := net.ResolveUDPAddr("udp", server.Addr())
	if err != nil {
		t.Fatal(err)
	}

	// First incarnation from a fixed local port: HELLO (ID 0) + RREQ (ID 1).
	laddr := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	sock1, err := net.DialUDP("udp", laddr, saddr)
	if err != nil {
		t.Fatal(err)
	}
	port := sock1.LocalAddr().(*net.UDPAddr).Port
	conn1 := NewConn(&rawUDPPipe{sock1}, ConnConfig{RetryTimeout: 100 * time.Millisecond, MaxRetries: 10})
	go (&UDPClient{conn: sock1}).Run(conn1.Deliver)
	first := udpCallSync(t, conn1, &Msg{Kind: KindHello})
	if first.Kind != KindHelloAck {
		t.Fatalf("handshake got %v", first.Kind)
	}
	r1 := udpCallSync(t, conn1, &Msg{Kind: KindRREQ, Count: 1})
	if len(r1.Data) != 1 {
		t.Fatalf("first read returned %d bytes", len(r1.Data))
	}
	sock1.Close()

	// Second incarnation reuses the same source port. Its HELLO must reset
	// the session; its RREQ reuses wire ID 1 and must be a fresh execution,
	// not the cached response tagged for the first incarnation.
	sock2, err := net.DialUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: port}, saddr)
	if err != nil {
		t.Fatal(err)
	}
	defer sock2.Close()
	conn2 := NewConn(&rawUDPPipe{sock2}, ConnConfig{RetryTimeout: 100 * time.Millisecond, MaxRetries: 10})
	go (&UDPClient{conn: sock2}).Run(conn2.Deliver)
	if h := udpCallSync(t, conn2, &Msg{Kind: KindHello}); h.Kind != KindHelloAck {
		t.Fatalf("re-handshake got %v", h.Kind)
	}
	r2 := udpCallSync(t, conn2, &Msg{Kind: KindRREQ, Count: 1})
	if len(r2.Data) != 1 {
		t.Fatalf("second read returned %d bytes", len(r2.Data))
	}
	if r2.Data[0] == r1.Data[0] {
		t.Fatalf("restarted client received the old incarnation's cached response (tag %d)", r2.Data[0])
	}
	if server.Sessions() != 1 {
		t.Errorf("sessions = %d, want 1 (HELLO replaced, not added)", server.Sessions())
	}
}

// TestUDPDuplicateHelloKeepsSession: a retransmitted HELLO carrying the
// current session's token must NOT reset the session — wiping the reply
// cache mid-pipeline would let retransmitted RMWs re-execute.
func TestUDPDuplicateHelloKeepsSession(t *testing.T) {
	var executions atomic.Int32
	handler := func(_, _ *Msg) {
		executions.Add(1)
	}
	server, err := ListenUDP("127.0.0.1:0", func(_ string, reply Pipe) func([]byte) {
		return NewResponder(reply, ResponderConfig{}, handler).Deliver
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	saddr, _ := net.ResolveUDPAddr("udp", server.Addr())
	sock, err := net.DialUDP("udp", nil, saddr)
	if err != nil {
		t.Fatal(err)
	}
	defer sock.Close()
	xchg := func(p []byte) {
		t.Helper()
		if _, err := sock.Write(p); err != nil {
			t.Fatal(err)
		}
		sock.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, MaxDatagram)
		if _, err := sock.Read(buf); err != nil {
			t.Fatal(err)
		}
	}
	helloEnc, err := (&Msg{Kind: KindHello, ID: 0, Data: []byte("token-A!")}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	rmwEnc, err := (&Msg{Kind: KindRMWREQ, ID: 1, Addr: 8, Op: 2, Args: []uint64{1}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	xchg(helloEnc) // handshake: executes
	xchg(rmwEnc)   // RMW: executes
	xchg(helloEnc) // retransmitted HELLO, same token: cached replay, no reset
	xchg(rmwEnc)   // retransmitted RMW: must hit the surviving cache
	if n := executions.Load(); n != 2 {
		t.Fatalf("handler ran %d times, want 2: duplicate HELLO reset the session", n)
	}
	// A *different* token is a new incarnation and must reset.
	hello2, err := (&Msg{Kind: KindHello, ID: 0, Data: []byte("token-B!")}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	xchg(hello2)
	xchg(rmwEnc)
	if n := executions.Load(); n != 4 {
		t.Fatalf("handler ran %d times, want 4: new token should reset the session", n)
	}
}

// rawUDPPipe adapts a connected socket to Pipe without UDPClient's close
// bookkeeping (the test closes sockets directly).
type rawUDPPipe struct{ conn *net.UDPConn }

func (p *rawUDPPipe) Send(b []byte) error { _, err := p.conn.Write(b); return err }
func (p *rawUDPPipe) Close() error        { return nil }

func udpCallSync(t *testing.T, c *Conn, m *Msg) *Msg {
	t.Helper()
	type res struct {
		m   *Msg
		err error
	}
	ch := make(chan res, 1)
	// Clone into a fresh variable: the response is pooled and valid only
	// during the callback.
	if _, err := c.Call(m, func(r *Msg, err error) {
		var cp *Msg
		if r != nil {
			cp = r.Clone()
		}
		ch <- res{cp, err}
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatal(r.err)
		}
		return r.m
	case <-time.After(5 * time.Second):
		t.Fatal("call never completed")
		return nil
	}
}

// TestConnDisableRetries: MaxRetries < 0 means single-attempt fail-fast.
func TestConnDisableRetries(t *testing.T) {
	cfg := LoopbackConfig{Fault: func(_ sim.Time, _ Dir, _ []byte) Fault { return FaultDrop }}
	lb := NewLoopback(cfg)
	conn := NewConn(lb.ClientPipe(), ConnConfig{RetryTimeout: 2 * time.Millisecond, MaxRetries: -1})
	lb.BindClient(conn.Deliver)
	ch := make(chan error, 1)
	if _, err := conn.Call(&Msg{Kind: KindRREQ, Count: 8}, func(_ *Msg, err error) { ch <- err }); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-ch:
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("got %v, want ErrTimeout", err)
		}
	case <-time.After(time.Second):
		t.Fatal("single-attempt call never failed")
	}
	if st := conn.Stats(); st.Sent != 1 || st.Retransmit != 0 {
		t.Fatalf("stats %+v, want exactly one transmission", st)
	}
}
