//edmlint:allow walltime the UDP transport is the real-time boundary: socket timestamps and idle reclamation are wall time by nature

package wire

import (
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"time"
)

// UDPClient is the client-side Pipe over a connected UDP socket. It
// implements BatchPipe: a corked window flush goes out as one sendmmsg on
// platforms that have it.
type UDPClient struct {
	conn *net.UDPConn
	bs   *batchSender

	mu     sync.Mutex
	closed bool
}

// DialUDP connects a UDP socket to addr ("host:port"). Call Run with the
// receive path (typically Conn.Deliver) to start the read loop.
func DialUDP(addr string) (*UDPClient, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: resolve %s: %w", addr, err)
	}
	conn, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	return &UDPClient{conn: conn, bs: newBatchSender(conn)}, nil
}

// Run starts the read loop, routing every inbound datagram to deliver.
// Datagrams arrive in receive buffers the loop reuses, so deliver must not
// retain its argument past the call (Conn.Deliver and rmem's client decode
// and copy, satisfying this). Run returns when the socket closes.
func (u *UDPClient) Run(deliver func([]byte)) {
	r := newBatchReceiver(u.conn, false)
	defer r.release()
	for {
		n, err := r.recvBatch()
		if err != nil {
			return
		}
		for i := 0; i < n; i++ {
			deliver(r.pkt(i))
		}
	}
}

// Send transmits one datagram.
func (u *UDPClient) Send(p []byte) error {
	_, err := u.conn.Write(p)
	return err
}

// SendBatch transmits ps in order, coalescing datagrams into batched
// syscalls where the platform supports it.
func (u *UDPClient) SendBatch(ps [][]byte) error {
	return u.bs.send(ps)
}

// Close shuts the socket down, stopping the read loop.
func (u *UDPClient) Close() error {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.closed {
		return nil
	}
	u.closed = true
	return u.conn.Close()
}

// udpReply is the server's Pipe back to one remote client. It shares the
// listening socket, so Close is a no-op.
type udpReply struct {
	conn *net.UDPConn
	addr netip.AddrPort
}

func (r *udpReply) Send(p []byte) error {
	_, err := r.conn.WriteToUDPAddrPort(p, r.addr)
	return err
}

func (r *udpReply) Close() error { return nil }

// sessionIdleTimeout bounds how long a silent session keeps its state (the
// reply cache); a client that vanished without a BYE is reclaimed after
// this long.
const sessionIdleTimeout = 5 * time.Minute

// udpSession is one remote client's state.
type udpSession struct {
	deliver  func([]byte)
	token    string    // HELLO session token; guarded by mu (the server's)
	lastSeen time.Time // guarded by mu (the server's)
}

// packetWork is one inbound datagram bound for a session, parked on the
// worker queue. buf comes from pktBufPool and returns there after delivery.
type packetWork struct {
	buf     *[]byte
	n       int
	deliver func([]byte)
}

// pktBufPool recycles the datagram copies handed to the worker pool, so the
// server's receive path allocates no per-packet buffers in steady state.
var pktBufPool = sync.Pool{New: func() any {
	b := make([]byte, MaxDatagram+1)
	return &b
}}

// recvBufPool recycles receive buffers — udpBatchSize datagrams of
// MaxDatagram+1 bytes, about 1 MB where receives are batched — across
// sockets, so a short-lived connection takes a closed one's buffers instead
// of allocating its own.
var recvBufPool = sync.Pool{New: func() any {
	bufs := new([udpBatchSize][]byte)
	for i := range bufs {
		bufs[i] = make([]byte, MaxDatagram+1)
	}
	return bufs
}}

// release returns the receiver's buffers to recvBufPool once its read loop
// has ended and no packet it returned is still in use.
func (r *batchReceiver) release() {
	recvBufPool.Put(r.bufs)
	r.bufs = nil
}

// UDPServer owns a listening UDP socket and demultiplexes datagrams to
// per-remote sessions. The accept callback is invoked once per new remote
// address with a reply Pipe and returns that session's receive path
// (typically a Responder.Deliver); datagrams are then executed on a
// fixed-size worker pool (GOMAXPROCS workers), so sessions run concurrently
// without a goroutine per packet.
//
// Session lifecycle: a (CRC-valid) HELLO carrying a token different from
// the current session's starts a fresh session — a restarted client
// reusing its source port must not inherit the previous incarnation's
// reply cache, which would replay stale responses to its new message IDs.
// A HELLO with the *same* token is a retransmission of
// the current session's handshake and is delivered into it unchanged (the
// reply cache replays the HELLO-ACK), so an in-flight duplicate cannot
// wipe the cache out from under pipelined ops. Clients that send no token
// get the conservative always-reset behaviour. A (CRC-valid) BYE retires
// the session after delivery; a retransmitted BYE simply opens and
// immediately closes a fresh one. Sessions idle past sessionIdleTimeout
// are reclaimed by a janitor.
type UDPServer struct {
	conn   *net.UDPConn
	accept func(remote string, reply Pipe) func([]byte)

	mu          sync.Mutex
	sessions    map[netip.AddrPort]*udpSession // guarded by mu
	sessMetrics *UDPServerMetrics              // guarded by mu
	closed      bool                           // guarded by mu
	done        chan struct{}
	wg          sync.WaitGroup
}

// ListenUDP binds addr ("host:port"; port 0 picks a free one) and starts
// serving. Use Addr for the bound address and Close to stop.
func ListenUDP(addr string, accept func(remote string, reply Pipe) func([]byte)) (*UDPServer, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: resolve %s: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("wire: listen %s: %w", addr, err)
	}
	s := &UDPServer{conn: conn, accept: accept,
		sessions: make(map[netip.AddrPort]*udpSession), done: make(chan struct{}),
		sessMetrics: NewUDPServerMetrics(nil)}
	s.wg.Add(2)
	go s.readLoop()
	go s.janitor()
	return s, nil
}

// SetMetrics swaps in registered session-lifecycle metrics. Call it right
// after ListenUDP, before clients connect; events counted on the default
// (unregistered) instance are not carried over.
func (s *UDPServer) SetMetrics(m *UDPServerMetrics) {
	if m == nil {
		return
	}
	s.mu.Lock()
	s.sessMetrics = m
	m.Active.Set(int64(len(s.sessions)))
	s.mu.Unlock()
}

// Addr reports the bound listen address.
func (s *UDPServer) Addr() string { return s.conn.LocalAddr().String() }

// sessionControl classifies the rare session-lifecycle datagrams and
// extracts the HELLO's session token. The kind byte sits at a fixed
// offset, so the cheap peek gates the full (CRC-validating) decode — a
// corrupted datagram must not reset or retire a session.
func sessionControl(p []byte) (hello, bye bool, token string) {
	if len(p) < headerBytes+crcBytes {
		return false, false, ""
	}
	k := Kind(p[1])
	if k != KindHello && k != KindBye {
		return false, false, ""
	}
	m, err := Decode(p)
	if err != nil {
		return false, false, ""
	}
	return m.Kind == KindHello, m.Kind == KindBye, string(m.Data)
}

// route classifies one datagram against the session table and returns the
// session's receive path (nil when the server is closed or the session has
// no deliver hook). Sessions are keyed by the source address as a value,
// so routing an established session's datagram allocates nothing; the
// remote's string form is built only for accept.
//
//edmlint:hotpath one route per inbound datagram
func (s *UDPServer) route(p []byte, key netip.AddrPort) func([]byte) {
	hello, bye, token := sessionControl(p)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	sess, ok := s.sessions[key]
	// A HELLO resets the session unless it carries the current
	// session's token (then it is a handshake retransmission).
	reset := hello && (!ok || token == "" || token != sess.token)
	if !ok || reset {
		sess = s.newSession(key, token)
		s.sessions[key] = sess
		s.sessMetrics.Started.Inc()
		if ok && reset {
			s.sessMetrics.Resets.Inc()
		}
	}
	sess.lastSeen = time.Now()
	if bye {
		// Retired after this datagram's delivery; the BYE-ACK goes out via
		// the session's own reply pipe regardless.
		delete(s.sessions, key)
		s.sessMetrics.Retired.Inc()
	}
	s.sessMetrics.Active.Set(int64(len(s.sessions)))
	s.mu.Unlock()
	return sess.deliver
}

// newSession opens the session state for a new remote.
func (s *UDPServer) newSession(key netip.AddrPort, token string) *udpSession {
	return &udpSession{
		deliver: s.accept(key.String(), &udpReply{conn: s.conn, addr: key}),
		token:   token,
	}
}

// readLoop drains the socket in recvmmsg batches and fans the packets out
// to a fixed worker pool. Ordering note: packets from one remote can
// execute on different workers concurrently, which is safe because the
// Responder serializes per-ID execution through its reply cache; and a
// worker blocked on an in-progress duplicate is always waiting on an
// execution owned by a *different* packet, never its own, so the pool
// cannot deadlock on itself.
func (s *UDPServer) readLoop() {
	defer s.wg.Done()
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	work := make(chan packetWork, 4*workers)
	var workerWG sync.WaitGroup
	defer workerWG.Wait()
	defer close(work)
	for i := 0; i < workers; i++ {
		workerWG.Add(1)
		go func() {
			defer workerWG.Done()
			for w := range work {
				w.deliver((*w.buf)[:w.n])
				pktBufPool.Put(w.buf)
			}
		}()
	}
	r := newBatchReceiver(s.conn, true)
	defer r.release()
	for {
		n, err := r.recvBatch()
		if err != nil {
			return
		}
		for i := 0; i < n; i++ {
			p := r.pkt(i)
			deliver := s.route(p, r.src(i))
			if deliver == nil {
				continue
			}
			// Copy out of the receiver's reused buffer; the pooled copy
			// travels to a worker and returns to the pool after delivery.
			buf := pktBufPool.Get().(*[]byte)
			nb := copy(*buf, p)
			work <- packetWork{buf: buf, n: nb, deliver: deliver}
		}
	}
}

// janitor reclaims sessions idle past sessionIdleTimeout.
func (s *UDPServer) janitor() {
	defer s.wg.Done()
	ticker := time.NewTicker(sessionIdleTimeout / 4)
	defer ticker.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-ticker.C:
		}
		cutoff := time.Now().Add(-sessionIdleTimeout)
		s.mu.Lock()
		for key, sess := range s.sessions {
			if sess.lastSeen.Before(cutoff) {
				delete(s.sessions, key)
				s.sessMetrics.Expired.Inc()
			}
		}
		s.sessMetrics.Active.Set(int64(len(s.sessions)))
		s.mu.Unlock()
	}
}

// Sessions reports the number of live sessions.
func (s *UDPServer) Sessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Close stops the server and waits for in-flight handlers.
func (s *UDPServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.done)
	s.mu.Unlock()
	err := s.conn.Close()
	s.wg.Wait()
	return err
}
