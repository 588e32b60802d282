package rmem

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/memctl"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Client errors.
var (
	// ErrTooManyOut is the fail-fast signal when the bounded outstanding
	// window is exhausted, mirroring edm.ErrTooManyOut: the caller is
	// overdriving the node and must back off or widen the window.
	ErrTooManyOut = errors.New("rmem: too many outstanding operations")
	ErrBadKey     = errors.New("rmem: key out of range")
	ErrTooLarge   = errors.New("rmem: value exceeds slot")
	ErrClosed     = errors.New("rmem: client closed")

	// ErrDeadline marks an operation that exhausted its retry budget: the
	// node is unreachable (dead, partitioned, or overloaded past the
	// per-ID deadline), as opposed to a request the node rejected. Failover
	// layers (cluster.Client) key on it to distinguish "node dead" from
	// "bad request". Errors matching it still match wire.ErrTimeout, so
	// existing callers are unaffected.
	ErrDeadline = errors.New("rmem: retry budget exhausted")
)

// deadlineError stamps ErrDeadline onto a reliable-layer timeout while
// keeping the original chain (wire.ErrTimeout and its attempt count).
type deadlineError struct{ cause error }

func (e *deadlineError) Error() string   { return "rmem: deadline: " + e.cause.Error() }
func (e *deadlineError) Unwrap() error   { return e.cause }
func (e *deadlineError) Is(t error) bool { return t == ErrDeadline }

// wrapDeadline tags retry-budget timeouts with ErrDeadline.
func wrapDeadline(err error) error {
	if err == nil || !errors.Is(err, wire.ErrTimeout) {
		return err
	}
	//edmlint:allow hotpath cold path: only timed-out ops allocate the wrapper
	return &deadlineError{cause: err}
}

// MaxWindow caps ClientConfig.Window. It stays well below
// wire.DefaultResponderWindow, the span above the client's ack floor that
// the server accepts: while the oldest op retries, the floor holds at its ID
// and the other in-flight ops keep drawing new IDs, so the cap leaves
// headroom for the span to grow before the server starts dropping requests
// (each such drop costs a retransmission once the oldest op retires).
const MaxWindow = 1024

// ClientConfig tunes the client.
type ClientConfig struct {
	// Window bounds the outstanding operations (default 32, capped at
	// MaxWindow). Requests beyond it fail fast with ErrTooManyOut, like
	// edm.Host's bounded-outstanding-ID discipline.
	Window int
	// Retry tunes the reliable layer; RetryTimeout*(MaxRetries+1) is the
	// per-ID deadline after which an operation fails with wire.ErrTimeout.
	Retry wire.ConnConfig
	// HandshakeTimeout bounds Connect (default 5 s).
	HandshakeTimeout time.Duration
	// Slots and SlotBytes override the server-advertised slot geometry for
	// the Get/Put API (zero adopts the HELLO-ACK values).
	Slots, SlotBytes int
	// Metrics receives the window/completion counters and per-opcode latency
	// histograms. Nil gets a private, unregistered instance; its embedded
	// ConnMetrics backs the reliable layer unless Retry.Metrics overrides.
	Metrics *ClientMetrics
	// NowNS supplies timestamps for the latency histograms and the trace
	// ring (nanoseconds; wall or virtual — a loopback passes its virtual
	// clock to keep runs deterministic). Nil disables latency measurement.
	NowNS func() int64
	// Trace, when non-nil, receives the reliable layer's per-op records.
	Trace *telemetry.TraceRing
}

// ClientStats counts client-side operations.
type ClientStats struct {
	Issued     uint64
	Done       uint64
	Failed     uint64 // completed with an error (timeout or remote status)
	WindowFull uint64 // fail-fast rejections
}

// Client is the compute-node handle to a live memory node: raw Read/Write/
// RMW plus the kvstore-shaped Get/Put, all asynchronously pipelined behind a
// bounded outstanding window.
//
// Callback data-lifetime contract: the []byte handed to a Read callback (and
// the *wire.Msg behind it) is owned by the transport and valid only for the
// duration of the callback. Copy it out to retain it; ReadSync and Batch.Get
// already do.
type Client struct {
	conn    *wire.Conn
	cfg     ClientConfig
	metrics *ClientMetrics
	// token identifies this client incarnation in its HELLO: the server
	// resets per-remote session state when the token changes (client
	// restart on the same port) but not on a retransmitted HELLO carrying
	// the same token.
	token [8]byte

	// ops recycles pendingOp completion records and reqs recycles request
	// messages, so steady-state Read/Write/RMW allocates nothing.
	ops  sync.Pool
	reqs sync.Pool

	mu       sync.Mutex
	slotFree *sync.Cond
	inflight int      // guarded by mu
	geo      Geometry // guarded by mu
	closed   bool     // guarded by mu
}

// NewClient builds a client over pipe. Route inbound datagrams to Deliver
// (loopback: lb.BindClient(c.Deliver); UDP: go udpClient.Run(c.Deliver)),
// then call Connect to perform the HELLO handshake.
func NewClient(pipe wire.Pipe, cfg ClientConfig) *Client {
	if cfg.Window <= 0 {
		cfg.Window = 32
	}
	if cfg.Window > MaxWindow {
		cfg.Window = MaxWindow
	}
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = 5 * time.Second
	}
	if cfg.Metrics == nil {
		cfg.Metrics = NewClientMetrics(nil)
	}
	// The reliable layer inherits the client's metrics, clock, and trace
	// ring unless the Retry config wires its own.
	if cfg.Retry.Metrics == nil {
		cfg.Retry.Metrics = cfg.Metrics.Conn
	}
	if cfg.Retry.NowNS == nil {
		cfg.Retry.NowNS = cfg.NowNS
	}
	if cfg.Retry.Trace == nil {
		cfg.Retry.Trace = cfg.Trace
	}
	c := &Client{conn: wire.NewConn(pipe, cfg.Retry), cfg: cfg, metrics: cfg.Metrics}
	rand.Read(c.token[:])
	c.slotFree = sync.NewCond(&c.mu)
	return c
}

// Deliver is the inbound datagram path; wire it to the transport.
func (c *Client) Deliver(p []byte) { c.conn.Deliver(p) }

// Connect performs the HELLO handshake and adopts the server's advertised
// geometry (unless overridden in the config). The geometry is decoded inside
// the completion callback: the response message is pooled and only valid for
// the callback's duration.
//
//edmlint:allow walltime the handshake deadline bounds a real network exchange
func (c *Client) Connect() error {
	type result struct {
		geo Geometry
		err error
	}
	ch := make(chan result, 1)
	if _, err := c.conn.Call(&wire.Msg{Kind: wire.KindHello, Data: c.token[:]}, func(m *wire.Msg, err error) {
		if err == nil {
			err = m.Status.Err()
		}
		if err != nil {
			ch <- result{err: fmt.Errorf("rmem: handshake: %w", err)}
			return
		}
		geo, err := DecodeGeometry(m.Data)
		ch <- result{geo: geo, err: err}
	}); err != nil {
		return err
	}
	select {
	case r := <-ch:
		if r.err != nil {
			return r.err
		}
		c.mu.Lock()
		c.geo = r.geo
		if c.cfg.Slots > 0 {
			c.geo.Slots = c.cfg.Slots
		}
		if c.cfg.SlotBytes > 0 {
			c.geo.SlotBytes = c.cfg.SlotBytes
		}
		c.mu.Unlock()
		return nil
	case <-time.After(c.cfg.HandshakeTimeout):
		return fmt.Errorf("rmem: handshake: %w", wire.ErrTimeout)
	}
}

// Geometry reports the effective slab/slot layout (valid after Connect).
func (c *Client) Geometry() Geometry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.geo
}

// Stats snapshots the operation counters from the client's metrics.
func (c *Client) Stats() ClientStats {
	m := c.metrics
	return ClientStats{
		Issued:     m.Issued.Load(),
		Done:       m.Done.Load(),
		Failed:     m.Failed.Load(),
		WindowFull: m.WindowFull.Load(),
	}
}

// Metrics returns the client's metrics instance (never nil after NewClient).
func (c *Client) Metrics() *ClientMetrics { return c.metrics }

// ConnStats returns the underlying reliable layer's counters
// (retransmissions, timeouts, stray datagrams).
func (c *Client) ConnStats() wire.ConnStats { return c.conn.Stats() }

// Pending reports the in-flight operation count.
func (c *Client) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inflight
}

// acquire claims a window slot. With wait it blocks until one frees (batch
// mode); otherwise it fails fast with ErrTooManyOut, counted against the
// WindowFull metric only when countFull is set (the batch path probes the
// window internally and its rejections are not caller-visible backpressure).
func (c *Client) acquire(wait, countFull bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.inflight >= c.cfg.Window {
		if c.closed {
			return ErrClosed
		}
		if !wait {
			if countFull {
				c.metrics.WindowFull.Inc()
			}
			return ErrTooManyOut
		}
		c.slotFree.Wait()
	}
	if c.closed {
		return ErrClosed
	}
	c.inflight++
	c.metrics.Window.Set(int64(c.inflight))
	c.metrics.Issued.Inc()
	return nil
}

// release frees a window slot and updates completion counters.
func (c *Client) release(failed bool) {
	c.mu.Lock()
	c.inflight--
	c.metrics.Window.Set(int64(c.inflight))
	c.slotFree.Signal()
	c.mu.Unlock()
	if failed {
		c.metrics.Failed.Inc()
	} else {
		c.metrics.Done.Inc()
	}
}

// pendingOp is the pooled completion record for one in-flight operation: it
// implements wire.Completion so the hot path needs no per-op closure. Exactly
// one cb* field is set; Done dispatches to it after recycling the record.
//
//edmlint:owned callback
type pendingOp struct {
	c     *Client
	kind  wire.Kind
	start int64
	// Exactly one of these is non-nil per use.
	cbMsg   func(*wire.Msg, error)
	cbRead  func([]byte, error)
	cbWrite func(error)
	cbRMW   func(uint64, error)
}

func (o *pendingOp) clear() {
	o.c = nil
	o.cbMsg, o.cbRead, o.cbWrite, o.cbRMW = nil, nil, nil, nil
}

// Done implements wire.Completion. The response r is pooled by the reliable
// layer and valid only for this call, so every retaining path copies.
//
//edmlint:hotpath one invocation per completed op
func (o *pendingOp) Done(r *wire.Msg, err error) {
	c := o.c
	if err == nil {
		err = r.Status.Err()
	}
	err = wrapDeadline(err)
	if c.cfg.NowNS != nil && err == nil {
		if h := c.metrics.Latency[o.kind]; h != nil {
			h.Observe(c.cfg.NowNS() - o.start)
		}
	}
	c.release(err != nil)
	// Recycle the record before dispatching: the callback may issue a
	// follow-up op, and the saved locals keep this completion intact.
	cbMsg, cbRead, cbWrite, cbRMW := o.cbMsg, o.cbRead, o.cbWrite, o.cbRMW
	o.clear()
	c.ops.Put(o)
	switch {
	case cbMsg != nil:
		cbMsg(r, err)
	case cbRead != nil:
		if err != nil {
			cbRead(nil, err)
			return
		}
		cbRead(r.Data, nil)
	case cbWrite != nil:
		cbWrite(err)
	case cbRMW != nil:
		if err != nil {
			cbRMW(0, err)
			return
		}
		if len(r.Data) != 8 {
			//edmlint:allow hotpath cold path: the server sent a malformed RMW result
			cbRMW(0, fmt.Errorf("%w: RMW result %d bytes", wire.ErrBadMsg, len(r.Data)))
			return
		}
		cbRMW(binary.LittleEndian.Uint64(r.Data), nil)
	}
}

// getOp pops a pooled completion record.
func (c *Client) getOp() *pendingOp {
	if v := c.ops.Get(); v != nil {
		return v.(*pendingOp)
	}
	//edmlint:allow hotpath pool miss; steady state recycles
	return new(pendingOp)
}

// getReq pops a pooled request message.
func (c *Client) getReq() *wire.Msg {
	if v := c.reqs.Get(); v != nil {
		return v.(*wire.Msg)
	}
	//edmlint:allow hotpath pool miss; steady state recycles
	return new(wire.Msg)
}

// putReq recycles a request message. Request messages alias caller-owned
// Data/Args slices, so this fully detaches rather than Msg.Reset (which
// would keep the aliased memory alive inside the pool).
func (c *Client) putReq(m *wire.Msg) {
	*m = wire.Msg{}
	c.reqs.Put(m)
}

// issue submits one request inside the window discipline. It consumes o in
// every outcome: on success the reliable layer owns it until Done fires; on
// error it is recycled and the callback is never invoked. The caller still
// owns m afterwards (the reliable layer encodes before returning).
//
//edmlint:hotpath every client op funnels through here
func (c *Client) issue(wait, countFull bool, m *wire.Msg, o *pendingOp) error {
	if err := c.acquire(wait, countFull); err != nil {
		o.clear()
		c.ops.Put(o)
		return err
	}
	o.c = c
	o.kind = m.Kind
	o.start = 0
	if c.cfg.NowNS != nil {
		o.start = c.cfg.NowNS()
	}
	if _, err := c.conn.CallC(m, o); err != nil {
		// Submit failed, so the completion will never fire.
		c.release(true)
		o.clear()
		c.ops.Put(o)
		return err
	}
	return nil
}

// doMsg issues one request with a message-level callback (the batch path;
// the raw async API uses the typed pendingOp fields instead).
func (c *Client) doMsg(wait, countFull bool, m *wire.Msg, cb func(*wire.Msg, error)) error {
	o := c.getOp()
	o.cbMsg = cb
	return c.issue(wait, countFull, m, o)
}

// Read issues an asynchronous remote read of n bytes at addr; cb fires with
// the data or an error (wire.ErrTimeout past the per-ID deadline). It fails
// fast with ErrTooManyOut when the window is exhausted. The data slice is
// only valid for the duration of the callback — copy to retain.
//
//edmlint:hotpath
//edmlint:owned callback the data slice aliases the pooled response Msg
func (c *Client) Read(addr uint64, n int, cb func([]byte, error)) error {
	o := c.getOp()
	o.cbRead = cb
	m := c.getReq()
	m.Kind = wire.KindRREQ
	m.Addr = addr
	m.Count = uint32(n)
	err := c.issue(false, true, m, o)
	c.putReq(m)
	return err
}

// Write issues an asynchronous remote write; cb fires once the server acks.
// data is captured into the datagram before Write returns.
//
//edmlint:hotpath
func (c *Client) Write(addr uint64, data []byte, cb func(error)) error {
	o := c.getOp()
	o.cbWrite = cb
	m := c.getReq()
	m.Kind = wire.KindWREQ
	m.Addr = addr
	m.Count = uint32(len(data))
	m.Data = data
	err := c.issue(false, true, m, o)
	c.putReq(m)
	return err
}

// RMW issues an asynchronous atomic read-modify-write; cb receives the
// 64-bit result (CAS: 1 swapped / 0 not; others: the previous value).
//
//edmlint:hotpath
func (c *Client) RMW(addr uint64, op memctl.RMWOp, args []uint64, cb func(uint64, error)) error {
	o := c.getOp()
	o.cbRMW = cb
	m := c.getReq()
	m.Kind = wire.KindRMWREQ
	m.Addr = addr
	m.Op = uint8(op)
	m.Args = args
	err := c.issue(false, true, m, o)
	c.putReq(m)
	return err
}

// ReadSync is the blocking form of Read. It returns a fresh copy of the data
// (the async callback's view is only transiently valid).
func (c *Client) ReadSync(addr uint64, n int) ([]byte, error) {
	type res struct {
		data []byte
		err  error
	}
	ch := make(chan res, 1)
	if err := c.Read(addr, n, func(d []byte, err error) {
		// Copy into a fresh variable: d aliases the pooled response and
		// must not leave the callback (pooledescape proves this form).
		var data []byte
		if err == nil {
			data = append([]byte(nil), d...)
		}
		ch <- res{data, err}
	}); err != nil {
		return nil, err
	}
	r := <-ch
	return r.data, r.err
}

// WriteSync is the blocking form of Write.
func (c *Client) WriteSync(addr uint64, data []byte) error {
	ch := make(chan error, 1)
	if err := c.Write(addr, data, func(err error) { ch <- err }); err != nil {
		return err
	}
	return <-ch
}

// RMWSync is the blocking form of RMW.
func (c *Client) RMWSync(addr uint64, op memctl.RMWOp, args ...uint64) (uint64, error) {
	type res struct {
		v   uint64
		err error
	}
	ch := make(chan res, 1)
	if err := c.RMW(addr, op, args, func(v uint64, err error) { ch <- res{v, err} }); err != nil {
		return 0, err
	}
	r := <-ch
	return r.v, r.err
}

// slotAddr maps a key to its slab address under the effective geometry.
func (c *Client) slotAddr(key int) (uint64, int, error) {
	c.mu.Lock()
	geo := c.geo
	c.mu.Unlock()
	if geo.SlotBytes <= 0 {
		return 0, 0, fmt.Errorf("rmem: no slot geometry (Connect first)")
	}
	if key < 0 || key >= geo.Slots {
		return 0, 0, fmt.Errorf("%w: %d of %d", ErrBadKey, key, geo.Slots)
	}
	return uint64(key) * uint64(geo.SlotBytes), geo.SlotBytes, nil
}

// Get reads the fixed-size slot for key (the kvstore-shaped API). The data
// slice passed to cb is only valid for the duration of the callback.
//
//edmlint:owned callback the data slice aliases the pooled response Msg
func (c *Client) Get(key int, cb func([]byte, error)) error {
	addr, n, err := c.slotAddr(key)
	if err != nil {
		return err
	}
	return c.Read(addr, n, cb)
}

// Put writes value into key's slot; values shorter than the slot leave the
// tail untouched.
func (c *Client) Put(key int, value []byte, cb func(error)) error {
	addr, n, err := c.slotAddr(key)
	if err != nil {
		return err
	}
	if len(value) > n {
		return fmt.Errorf("%w: %d bytes into %d-byte slot", ErrTooLarge, len(value), n)
	}
	return c.Write(addr, value, cb)
}

// GetSync and PutSync are the blocking slot forms.
func (c *Client) GetSync(key int) ([]byte, error) {
	addr, n, err := c.slotAddr(key)
	if err != nil {
		return nil, err
	}
	return c.ReadSync(addr, n)
}

// PutSync is the blocking form of Put.
func (c *Client) PutSync(key int, value []byte) error {
	ch := make(chan error, 1)
	if err := c.Put(key, value, func(err error) { ch <- err }); err != nil {
		return err
	}
	return <-ch
}

// Close tears the session down (best-effort BYE) and fails any pending
// operations with wire.ErrClosed.
//
//edmlint:allow walltime the BYE grace period waits on a real round trip
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.slotFree.Broadcast()
	c.mu.Unlock()
	// Quiesce in-flight ops (and their retransmission timers) before the
	// BYE: the server forgets the session on BYE, and a stale request
	// retried into a fresh session would re-execute — a duplicate RMW.
	c.conn.Abort(wire.ErrClosed)
	// Best-effort teardown: give the BYE one short round trip, then close
	// regardless (the server's session state is reclaimable either way).
	wait := c.cfg.Retry.RetryTimeout
	if wait <= 0 || wait > 250*time.Millisecond {
		wait = 250 * time.Millisecond
	}
	ch := make(chan struct{}, 1)
	if _, err := c.conn.Call(&wire.Msg{Kind: wire.KindBye}, func(*wire.Msg, error) {
		ch <- struct{}{}
	}); err == nil {
		select {
		case <-ch:
		case <-time.After(wait):
		}
	}
	return c.conn.Close()
}

// BatchOp identifies one operation in a Batch.
type BatchOp struct {
	// Get: Value receives the slot contents. Put: Value is what was stored.
	Key   int
	Put   bool
	Value []byte
	Err   error
}

// Batch accumulates slot operations and issues them as one pipelined burst:
// client-side batching for the Get/Put API. Unlike the raw async calls a
// batch never fails fast — it throttles itself to the window, blocking
// until slots free.
type Batch struct {
	c   *Client
	ops []BatchOp
}

// NewBatch starts an empty batch.
func (c *Client) NewBatch() *Batch { return &Batch{c: c} }

// Get queues a slot read.
func (b *Batch) Get(key int) *Batch {
	b.ops = append(b.ops, BatchOp{Key: key})
	return b
}

// Put queues a slot write.
func (b *Batch) Put(key int, value []byte) *Batch {
	b.ops = append(b.ops, BatchOp{Key: key, Put: true, Value: value})
	return b
}

// Len reports the queued operation count.
func (b *Batch) Len() int { return len(b.ops) }

// Flush issues every queued operation pipelined, waits for all completions,
// and returns the per-op outcomes. The first error encountered (if any) is
// also returned; the batch is reset for reuse.
//
// Flush corks the reliable layer while it enqueues, so the burst leaves the
// client as coalesced datagram batches rather than one send per op. When the
// window fills mid-batch it uncorks first (corked ops cannot complete, so
// blocking while corked would deadlock), blocks for a free slot, and corks
// again for the remainder.
func (b *Batch) Flush() ([]BatchOp, error) {
	ops := b.ops
	b.ops = nil
	c := b.c
	var wg sync.WaitGroup
	c.conn.Cork()
	for i := range ops {
		op := &ops[i]
		addr, n, err := c.slotAddr(op.Key)
		if err != nil {
			op.Err = err
			continue
		}
		if op.Put && len(op.Value) > n {
			op.Err = fmt.Errorf("%w: %d bytes into %d-byte slot", ErrTooLarge, len(op.Value), n)
			continue
		}
		m := c.getReq()
		if op.Put {
			m.Kind = wire.KindWREQ
			m.Addr = addr
			m.Count = uint32(len(op.Value))
			m.Data = op.Value
		} else {
			m.Kind = wire.KindRREQ
			m.Addr = addr
			m.Count = uint32(n)
		}
		wg.Add(1)
		cb := func(r *wire.Msg, err error) {
			defer wg.Done()
			if err != nil {
				op.Err = err
				return
			}
			if !op.Put {
				// r is pooled: copy the payload out, reusing the op's
				// Value capacity across batch reuses.
				op.Value = append(op.Value[:0], r.Data...)
			}
		}
		err = c.doMsg(false, false, m, cb)
		if errors.Is(err, ErrTooManyOut) {
			c.conn.Uncork()
			err = c.doMsg(true, false, m, cb)
			c.conn.Cork()
		}
		c.putReq(m)
		if err != nil {
			wg.Done()
			op.Err = err
		}
	}
	c.conn.Uncork()
	wg.Wait()
	for i := range ops {
		if ops[i].Err != nil {
			return ops, ops[i].Err
		}
	}
	return ops, nil
}
