package wire

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Pipe is one unreliable datagram path to a single peer. Send is best-effort
// (the datagram may be lost, duplicated or corrupted in flight); Close
// releases the underlying resources. Implementations: the UDP client and the
// per-remote reply pipes of the UDP server (udp.go), and the two ends of a
// Loopback (loopback.go).
type Pipe interface {
	Send(p []byte) error
	Close() error
}

// BatchPipe extends Pipe with a batched send. SendBatch must behave exactly
// as calling Send on each element in order — same delivery order, same
// fault accounting — merely amortizing the per-datagram cost (one sendmmsg
// syscall on Linux UDP). Conn.Uncork uses it to flush a corked window in
// one call.
type BatchPipe interface {
	Pipe
	SendBatch(ps [][]byte) error
}

// Reliability errors.
var (
	ErrClosed  = errors.New("wire: connection closed")
	ErrTimeout = errors.New("wire: no response within the retry budget")
)

// ConnConfig tunes the client-side reliability layer.
type ConnConfig struct {
	// RetryTimeout is the per-attempt retransmission timeout.
	RetryTimeout time.Duration
	// MaxRetries is how many retransmissions follow the first attempt
	// before the call fails with ErrTimeout. The per-ID deadline is thus
	// RetryTimeout * (MaxRetries + 1). Zero means the default; a negative
	// value disables retransmission entirely (single-attempt fail-fast).
	MaxRetries int
	// Metrics receives the reliability counters. Nil gets a private,
	// unregistered instance, so Stats() works either way; pass a shared
	// instance to aggregate several connections into one family.
	Metrics *ConnMetrics
	// NowNS supplies timestamps (nanoseconds; wall or virtual — the layer
	// never reads a clock itself, keeping deterministic transports
	// byte-reproducible). Nil disables per-op latency in the trace ring.
	NowNS func() int64
	// Trace, when non-nil, receives one record per op lifecycle event
	// (enqueue/send/retry/complete/timeout).
	Trace *telemetry.TraceRing
}

// DefaultConnConfig returns the tuning used by the CLIs: 20 ms per attempt,
// 5 retransmissions (120 ms per-ID deadline).
func DefaultConnConfig() ConnConfig {
	return ConnConfig{RetryTimeout: 20 * time.Millisecond, MaxRetries: 5}
}

func (c *ConnConfig) fill() {
	if c.RetryTimeout <= 0 {
		c.RetryTimeout = DefaultConnConfig().RetryTimeout
	}
	switch {
	case c.MaxRetries < 0:
		c.MaxRetries = 0
	case c.MaxRetries == 0:
		c.MaxRetries = DefaultConnConfig().MaxRetries
	}
	if c.Metrics == nil {
		c.Metrics = NewConnMetrics(nil)
	}
}

// ConnStats counts client-side reliability events.
type ConnStats struct {
	Sent       uint64 // datagrams transmitted (including retransmissions)
	Retransmit uint64 // retransmissions
	Responses  uint64 // responses matched to a pending call
	Stray      uint64 // datagrams that matched no pending call
	Garbage    uint64 // datagrams that failed to decode (corruption)
	Timeouts   uint64 // calls that exhausted their retry budget
}

// Completion receives a call's outcome: the allocation-free alternative to
// a callback closure. A caller embeds its per-op state in a struct
// implementing Completion and passes the same pointer through CallC,
// avoiding one closure allocation per operation. Done is invoked exactly
// once, with either the response or an error; the response Msg is owned by
// the connection and valid only for the duration of the Done call — use
// Msg.Clone (or copy the fields needed) to retain it.
type Completion interface {
	Done(m *Msg, err error)
}

// call is one in-flight request awaiting its response. Records live on a
// per-connection free list: retired calls are recycled, their encode buffer
// and retransmission timer reused, so the steady state allocates nothing.
// The sending count keeps a record (and its enc buffer) alive while any
// goroutine is inside pipe.Send with it — a record is only recycled when it
// is done AND no send references it, so a retransmission can never observe
// a buffer being rewritten for a new call.
//
//edmlint:owned callback
type call struct {
	id       uint32 // guarded by mu
	enc      []byte // cached encoding, re-sent verbatim on retry; owned by the record
	want     Kind   // expected response kind
	cb       func(*Msg, error)
	comp     Completion
	timer    *time.Timer // allocated once per record, Reset across reuses
	start    int64       // NowNS at issue (0 when no clock is wired)
	attempts int         // guarded by mu
	sending  int         // guarded by mu: goroutines inside pipe.Send with enc
	done     bool        // guarded by mu
	next     *call       // guarded by mu: free-list link
}

// queued is one corked call awaiting the Uncork flush. It carries the ID
// alongside the record so a flush can tell a still-pending call from a
// record that was retired and recycled under a new ID while corked.
type queued struct {
	id uint32
	cl *call
}

// Conn is the client half of the reliable layer: it assigns message IDs,
// transmits requests over an unreliable Pipe, retransmits on a per-message
// timer until the matching response arrives, and fails the call with
// ErrTimeout once the retry budget is spent. Every request carries the
// connection's ack floor — the lowest ID still pending, so every lower ID
// is retired (answered, timed out, aborted, or never sent) and will not be
// retransmitted — which lets the Responder drop the replies it cached for
// them. A call whose ID runs DefaultResponderWindow or more past the floor
// — the span the server accepts — is held back unsent, and goes out once
// the floor has advanced far enough. Callbacks are invoked on
// whatever goroutine delivers the response (the transport's receive path or
// the retry timer), never with the connection lock held — they may issue new
// calls. The response Msg handed to a callback or Completion is pooled and
// valid only during that invocation; Clone it to retain it.
type Conn struct {
	cfg   ConnConfig
	pipe  Pipe
	batch BatchPipe // pipe's batched form when it has one, else nil

	mu       sync.Mutex
	nextID   uint32           // guarded by mu
	floor    uint32           // guarded by mu: lowest pending ID, nextID when none is
	pending  map[uint32]*call // guarded by mu
	free     *call            // guarded by mu: recycled call records
	corked   int              // guarded by mu: Cork nesting depth
	queue    []queued         // guarded by mu: sends deferred while corked
	held     []queued         // guarded by mu: calls past the server's window, oldest first
	sendBufs [][]byte         // guarded by mu: flush scratch, reused across Uncorks
	closed   bool             // guarded by mu
}

// NewConn builds a reliable connection over pipe. The owner must route
// inbound datagrams from the peer to Deliver.
func NewConn(pipe Pipe, cfg ConnConfig) *Conn {
	cfg.fill()
	c := &Conn{cfg: cfg, pipe: pipe, pending: make(map[uint32]*call)}
	if bp, ok := pipe.(BatchPipe); ok {
		c.batch = bp
	}
	return c
}

// Stats snapshots the reliability counters from the connection's metrics
// (shared ConnMetrics aggregate across every Conn they back).
func (c *Conn) Stats() ConnStats {
	m := c.cfg.Metrics
	return ConnStats{
		Sent:       m.Datagrams.Load(),
		Retransmit: m.Retransmits.Load(),
		Responses:  m.Responses.Load(),
		Stray:      m.Stray.Load(),
		Garbage:    m.Garbage.Load(),
		Timeouts:   m.Timeouts.Load(),
	}
}

// Metrics returns the connection's metrics instance (never nil after NewConn).
func (c *Conn) Metrics() *ConnMetrics { return c.cfg.Metrics }

// newCallLocked draws a call record from the free list.
func (c *Conn) newCallLocked() *call {
	cl := c.free
	if cl == nil {
		//edmlint:allow hotpath free-list miss: allocates only up to the window's high-water mark
		return &call{}
	}
	c.free = cl.next
	cl.next = nil
	cl.done = false
	cl.attempts = 0
	cl.start = 0
	return cl
}

// freeCallLocked recycles a retired record. Callers must have saved the
// cb/comp/want/start fields they still need — the record may be handed to a
// new call the moment the lock drops.
//
//edmlint:allow pooledescape the free list is the pool's own storage for retired records
func (c *Conn) freeCallLocked(cl *call) {
	cl.cb = nil
	cl.comp = nil
	cl.enc = cl.enc[:0]
	cl.next = c.free
	c.free = cl
}

// retireLocked completes a call's bookkeeping: out of pending, ack floor
// advanced past it, timer stopped, recycled unless a send still references
// its buffer (afterSend recycles it then).
func (c *Conn) retireLocked(cl *call) {
	cl.done = true
	delete(c.pending, cl.id)
	if cl.id == c.floor {
		c.advanceFloorLocked()
	}
	if cl.timer != nil {
		cl.timer.Stop()
	}
	if cl.sending == 0 {
		c.freeCallLocked(cl)
	}
}

// admitLocked reports whether a call not yet sent may go out now: its ID
// lies within the server's window above the floor and no earlier call is
// held. A floor stamped at submission that would now place the call outside
// that window is refreshed (no send references the buffer yet).
func (c *Conn) admitLocked(q queued) bool {
	if len(c.held) > 0 || q.id-c.floor >= DefaultResponderWindow {
		return false
	}
	if q.id-encodedFloor(q.cl.enc) >= DefaultResponderWindow {
		restampFloor(q.cl.enc, c.floor)
	}
	return true
}

// advanceFloorLocked moves the ack floor up to the lowest pending ID, or to
// nextID when nothing is pending. IDs are issued in order, so each ID is
// passed once: the walk costs one map lookup per ID, amortized.
func (c *Conn) advanceFloorLocked() {
	for c.floor != c.nextID {
		if _, ok := c.pending[c.floor]; ok {
			return
		}
		c.floor++
	}
}

// Call transmits a request and invokes cb exactly once: with the response,
// or with ErrTimeout after the retry budget, or with ErrClosed if the
// connection closes first. The assigned message ID is returned. cb may be
// invoked synchronously (before Call returns) on transports that deliver
// in the caller's stack, such as the loopback. The response Msg is valid
// only during the callback; Clone it to retain it.
//
//edmlint:hotpath one Call per client operation
func (c *Conn) Call(m *Msg, cb func(*Msg, error)) (uint32, error) {
	return c.submit(m, cb, nil)
}

// CallC is Call with a Completion instead of a closure: the caller supplies
// a reusable per-op struct, so issuing a request allocates nothing.
//
//edmlint:hotpath one CallC per client operation
func (c *Conn) CallC(m *Msg, comp Completion) (uint32, error) {
	return c.submit(m, nil, comp)
}

// submit encodes m into a pooled call record and either transmits it or,
// while corked, queues it for the Uncork flush. m itself is not retained:
// it may be pooled or reused the moment submit returns.
//
//edmlint:hotpath the one submission path for every request
func (c *Conn) submit(m *Msg, cb func(*Msg, error), comp Completion) (uint32, error) {
	if !m.Kind.IsRequest() {
		return 0, fmt.Errorf("%w: %v is not a request", ErrBadMsg, m.Kind)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, ErrClosed
	}
	id := c.nextID
	c.nextID++
	m.ID = id
	m.Floor = c.floor
	cl := c.newCallLocked()
	enc, err := m.AppendEncode(cl.enc[:0])
	if err != nil {
		// The ID is spent but was never pending: step the floor over it.
		c.freeCallLocked(cl)
		c.advanceFloorLocked()
		c.mu.Unlock()
		return 0, err
	}
	cl.enc = enc
	cl.id = id
	cl.want = m.Kind.Response()
	cl.cb = cb
	cl.comp = comp
	cl.attempts = 1
	if c.cfg.NowNS != nil {
		cl.start = c.cfg.NowNS()
	}
	start := cl.start
	c.pending[id] = cl
	mt := c.cfg.Metrics
	if c.corked > 0 {
		c.queue = append(c.queue, queued{id: id, cl: cl})
		c.mu.Unlock()
		mt.Requests[m.Kind].Inc()
		mt.InFlight.Add(1)
		c.cfg.Trace.Record(uint64(id), telemetry.StageEnqueue, uint8(m.Kind), start, 0)
		return id, nil
	}
	if !c.admitLocked(queued{id: id, cl: cl}) {
		c.held = append(c.held, queued{id: id, cl: cl})
		c.mu.Unlock()
		mt.Requests[m.Kind].Inc()
		mt.InFlight.Add(1)
		c.cfg.Trace.Record(uint64(id), telemetry.StageEnqueue, uint8(m.Kind), start, 0)
		return id, nil
	}
	cl.sending++
	c.mu.Unlock()
	mt.Datagrams.Inc()
	mt.Requests[m.Kind].Inc()
	mt.InFlight.Add(1)
	c.cfg.Trace.Record(uint64(id), telemetry.StageEnqueue, uint8(m.Kind), start, 0)
	// Send outside the lock: a synchronous transport (loopback) delivers
	// the response in this same stack, re-entering Deliver. A transport
	// error is treated like a lost datagram — the retry timer armed in
	// afterSend will either get through or time the call out.
	c.pipe.Send(enc)
	if c.cfg.Trace != nil {
		c.cfg.Trace.Record(uint64(id), telemetry.StageSend, uint8(m.Kind), c.timestamp(), 0)
	}
	c.afterSend(cl)
	return id, nil
}

// Cork suspends transmission: subsequent calls are encoded and registered
// as pending but their datagrams queue until the matching Uncork, which
// flushes them as one batch (a single sendmmsg on batching transports).
// Cork/Uncork pairs nest; only the outermost Uncork flushes. Retransmission
// timers arm at flush time, so a corked call's retry clock starts when its
// datagram first hits the wire.
func (c *Conn) Cork() {
	c.mu.Lock()
	c.corked++
	c.mu.Unlock()
}

// Uncork flushes the corked queue. Calls that were completed or aborted
// while corked (a synchronous transport cannot complete them, but Abort or
// Close can fail them) are skipped.
//
//edmlint:hotpath one Uncork per batch flush
func (c *Conn) Uncork() {
	c.mu.Lock()
	if c.corked > 0 {
		c.corked--
	}
	if c.corked > 0 || len(c.queue) == 0 {
		c.mu.Unlock()
		return
	}
	// Steal the queue and the buffer scratch; both return below so repeat
	// flushes reuse their capacity.
	queue := c.queue
	c.queue = nil
	bufs := c.sendBufs[:0]
	c.sendBufs = nil
	live := queue[:0]
	for _, q := range queue {
		if q.cl.done || c.pending[q.id] != q.cl {
			continue
		}
		if !c.admitLocked(q) {
			c.held = append(c.held, q)
			continue
		}
		q.cl.sending++
		live = append(live, q)
		bufs = append(bufs, q.cl.enc)
	}
	c.mu.Unlock()
	c.transmit(live, bufs)
	for i := range bufs {
		bufs[i] = nil
	}
	for i := range queue {
		queue[i] = queued{}
	}
	c.mu.Lock()
	if c.queue == nil {
		c.queue = queue[:0]
	}
	if c.sendBufs == nil {
		c.sendBufs = bufs[:0]
	}
	c.mu.Unlock()
}

// transmit sends a batch of first transmissions whose records the caller
// has marked sending, then arms their retransmission timers.
func (c *Conn) transmit(live []queued, bufs [][]byte) {
	if len(live) > 0 {
		c.cfg.Metrics.Datagrams.Add(uint64(len(live)))
		if c.batch != nil {
			c.batch.SendBatch(bufs)
		} else {
			for _, b := range bufs {
				c.pipe.Send(b)
			}
		}
		if c.cfg.Trace != nil {
			now := c.timestamp()
			for _, q := range live {
				c.cfg.Trace.Record(uint64(q.id), telemetry.StageSend, uint8(q.cl.want), now, 0)
			}
		}
	}
	for _, q := range live {
		c.afterSend(q.cl)
	}
}

// sendHeld transmits the held calls that the advanced floor now admits.
// Holding is rare (one call stalled while others run the ID span up to the
// server's window), so this path allocates its scratch.
func (c *Conn) sendHeld() {
	c.mu.Lock()
	var live []queued
	var bufs [][]byte
	n := 0
	for ; n < len(c.held); n++ {
		q := c.held[n]
		if q.cl.done || c.pending[q.id] != q.cl {
			continue
		}
		if q.id-c.floor >= DefaultResponderWindow {
			break
		}
		restampFloor(q.cl.enc, c.floor)
		q.cl.sending++
		live = append(live, q)
		bufs = append(bufs, q.cl.enc)
	}
	c.held = append(c.held[:0], c.held[n:]...)
	c.mu.Unlock()
	c.transmit(live, bufs)
}

// timestamp reads the configured clock; zero when none is wired.
func (c *Conn) timestamp() int64 {
	if c.cfg.NowNS == nil {
		return 0
	}
	return c.cfg.NowNS()
}

// afterSend runs once a send attempt referencing cl.enc has returned: drop
// the send reference, recycle the record if the call completed while the
// datagram was in flight, otherwise (re)arm the retransmission timer.
// Arming after the send — not before — matters for synchronous transports:
// the response may already have been delivered in the send's own stack, and
// a pre-armed timer could race it under scheduler jitter, retransmitting a
// message that was never lost.
//
//edmlint:hotpath runs once per send attempt; the timer is allocated once then Reset
//edmlint:allow walltime,hotpath retransmission deadlines are wall time by contract
func (c *Conn) afterSend(cl *call) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cl.sending--
	if cl.done {
		if cl.sending == 0 {
			c.freeCallLocked(cl)
		}
		return
	}
	if c.closed {
		return
	}
	if cl.timer == nil {
		cl.timer = time.AfterFunc(c.cfg.RetryTimeout, func() { c.retry(cl) })
	} else {
		cl.timer.Reset(c.cfg.RetryTimeout)
	}
}

// retry fires on the per-record timer: retransmit, or fail the call. A
// stale firing — the timer's Stop raced a completion and the record now
// carries a newer call — is detected by the pending check and at worst
// costs one early retransmission, which the server's reply cache absorbs.
func (c *Conn) retry(cl *call) {
	c.mu.Lock()
	if c.closed || cl.done || c.pending[cl.id] != cl {
		c.mu.Unlock()
		return
	}
	id, want := cl.id, cl.want
	if cl.attempts > c.cfg.MaxRetries {
		attempts := cl.attempts
		cb, comp := cl.cb, cl.comp
		c.retireLocked(cl)
		held := len(c.held) > 0
		c.mu.Unlock()
		if held {
			c.sendHeld()
		}
		c.cfg.Metrics.Timeouts.Inc()
		c.cfg.Metrics.InFlight.Add(-1)
		if c.cfg.Trace != nil {
			c.cfg.Trace.Record(uint64(id), telemetry.StageTimeout, uint8(want), c.timestamp(), uint64(attempts))
		}
		err := fmt.Errorf("%w (after %d attempts)", ErrTimeout, attempts)
		if comp != nil {
			comp.Done(nil, err)
		} else if cb != nil {
			cb(nil, err)
		}
		return
	}
	cl.attempts++
	attempts := cl.attempts
	cl.sending++
	enc := cl.enc
	c.mu.Unlock()
	c.cfg.Metrics.Datagrams.Inc()
	c.cfg.Metrics.Retransmits.Inc()
	c.pipe.Send(enc)
	if c.cfg.Trace != nil {
		c.cfg.Trace.Record(uint64(id), telemetry.StageRetry, uint8(want), c.timestamp(), uint64(attempts))
	}
	c.afterSend(cl)
}

// Deliver is the inbound datagram path: decode, match by ID, complete the
// call. Unmatched or undecodable datagrams are counted and dropped. The
// decoded Msg is pooled — handed to the callback for the duration of the
// callback only.
//
//edmlint:hotpath one Deliver per response datagram
func (c *Conn) Deliver(p []byte) {
	m := getMsg()
	if err := DecodeInto(m, p); err != nil {
		putMsg(m)
		c.cfg.Metrics.Garbage.Inc()
		return
	}
	c.mu.Lock()
	cl, ok := c.pending[m.ID]
	if !ok || cl.done || cl.want != m.Kind {
		// A response for a call that already timed out, a duplicate of one
		// already delivered, or a kind mismatch.
		c.mu.Unlock()
		c.cfg.Metrics.Stray.Inc()
		putMsg(m)
		return
	}
	cb, comp, start := cl.cb, cl.comp, cl.start
	c.retireLocked(cl)
	held := len(c.held) > 0
	c.mu.Unlock()
	if held {
		c.sendHeld()
	}
	c.cfg.Metrics.Responses.Inc()
	c.cfg.Metrics.RecvByKind[m.Kind].Inc()
	c.cfg.Metrics.InFlight.Add(-1)
	if c.cfg.Trace != nil {
		now := c.timestamp()
		var lat uint64
		if start != 0 && now > start {
			lat = uint64(now - start)
		}
		c.cfg.Trace.Record(uint64(m.ID), telemetry.StageComplete, uint8(m.Kind), now, lat)
	}
	if comp != nil {
		comp.Done(m, nil)
	} else if cb != nil {
		cb(m, nil)
	}
	putMsg(m)
}

// Pending reports the number of in-flight calls.
func (c *Conn) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// pendingDone is a completion target saved off a retiring call record (the
// record itself may be recycled before the callback runs).
type pendingDone struct {
	cb   func(*Msg, error)
	comp Completion
}

// Abort fails every pending call with err (ErrClosed if nil) without
// closing the connection; new calls proceed normally. Use it to quiesce
// in-flight traffic — and its retransmission timers — before a teardown
// exchange, so no stale request can be retried into a peer that has
// already forgotten the session.
func (c *Conn) Abort(err error) {
	if err == nil {
		err = ErrClosed
	}
	c.mu.Lock()
	done := c.takePendingLocked()
	c.mu.Unlock()
	c.cfg.Metrics.InFlight.Add(-int64(len(done)))
	for _, d := range done {
		if d.comp != nil {
			d.comp.Done(nil, err)
		} else if d.cb != nil {
			d.cb(nil, err)
		}
	}
}

// takePendingLocked retires every live pending call, held ones included,
// returning the saved completion targets.
func (c *Conn) takePendingLocked() []pendingDone {
	c.held = c.held[:0]
	done := make([]pendingDone, 0, len(c.pending))
	for _, cl := range c.pending {
		if !cl.done {
			done = append(done, pendingDone{cb: cl.cb, comp: cl.comp})
			c.retireLocked(cl)
		}
	}
	return done
}

// Close fails every pending call with ErrClosed and closes the pipe.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.queue = nil
	done := c.takePendingLocked()
	c.mu.Unlock()
	c.cfg.Metrics.InFlight.Add(-int64(len(done)))
	for _, d := range done {
		if d.comp != nil {
			d.comp.Done(nil, ErrClosed)
		} else if d.cb != nil {
			d.cb(nil, ErrClosed)
		}
	}
	return c.pipe.Close()
}

// ResponderConfig tunes the server half.
type ResponderConfig struct {
	// Metrics receives the responder counters. A server passes one shared
	// instance to every session's responder, so the series aggregate over
	// sessions. Nil gets a private, unregistered instance.
	Metrics *ResponderMetrics
}

// DefaultResponderWindow bounds how far past the client's ack floor a
// request ID may run. Conn holds a call that far ahead unsent until its
// floor advances; a Responder drops, unexecuted, any such request that
// arrives anyway, so a session never caches more replies than this.
const DefaultResponderWindow = 4096

// ResponderStats counts server-side events.
type ResponderStats struct {
	Requests   uint64 // fresh requests executed
	Duplicates uint64 // retransmissions answered from the cache
	Garbage    uint64 // datagrams that failed to decode
	Rejected   uint64 // datagrams that decoded to a non-request kind
	Stale      uint64 // requests below the ack floor, dropped unexecuted
	Ahead      uint64 // requests past the window above the floor, dropped
}

// respEntry is one cached reply. It is inserted before the handler runs
// (done false, enc empty) so a retransmission racing the first execution
// waits for the response instead of re-executing — the guarantee that keeps
// RMWs exactly-once. refs counts the goroutines that still read enc: the
// executing one until its own send returns, plus every replay in progress.
// An entry the ack floor has passed leaves the cache at once but returns to
// entryPool only when refs drops to zero, so no handler or replay ever sees
// its buffer rewritten for another ID.
type respEntry struct {
	enc     []byte
	done    bool // guarded by mu: response cached, safe to replay
	evicted bool // guarded by mu: out of the cache, recycled when refs is zero
	refs    int  // guarded by mu: goroutines reading enc
}

// entryPool recycles reply entries across sessions. Being a sync.Pool, it
// holds no buffer past the next GC cycles: the live heap carries only the
// replies a client can still retransmit.
var entryPool = sync.Pool{New: func() any { return new(respEntry) }}

// Responder is the server half of the reliable layer for one client session:
// it decodes inbound requests, raises the session's ack floor from them,
// suppresses duplicates by replaying the cached reply of any ID at or above
// the floor, drops requests below the floor (retired calls) or too far past
// it, executes fresh requests through the handler, and transmits the
// response. The handler runs on the delivering goroutine.
type Responder struct {
	pipe    Pipe
	handler func(req, resp *Msg)
	metrics *ResponderMetrics

	mu      sync.Mutex
	filled  *sync.Cond            // signals entries transitioning to done
	waiting int                   // guarded by mu: goroutines parked in filled.Wait
	floor   uint32                // guarded by mu: the client's ack floor
	started bool                  // guarded by mu: floor taken from a first request
	cache   map[uint32]*respEntry // guarded by mu: replies of IDs at or above floor
}

// NewResponder builds the server half over pipe. handler serves one fresh
// request: req carries the decoded request, resp arrives reset with Kind
// pre-set to req's response kind and the matching ID. The handler fills in
// status and payload — writing resp.Data via append(resp.Data[:0], ...) or
// assigning a fresh slice (the buffer is donated to the response pool
// either way; it must not alias memory the handler keeps). Both messages
// are pooled: valid only for the duration of the call, never retained.
// Protocol errors are responses with a non-OK status.
func NewResponder(pipe Pipe, cfg ResponderConfig, handler func(req, resp *Msg)) *Responder {
	if cfg.Metrics == nil {
		cfg.Metrics = NewResponderMetrics(nil)
	}
	r := &Responder{pipe: pipe, handler: handler, metrics: cfg.Metrics,
		cache: make(map[uint32]*respEntry)}
	r.filled = sync.NewCond(&r.mu)
	return r
}

// Stats snapshots the responder counters from its metrics (shared
// ResponderMetrics aggregate across every session they back).
func (r *Responder) Stats() ResponderStats {
	return ResponderStats{
		Requests:   r.metrics.Requests.Load(),
		Duplicates: r.metrics.Duplicates.Load(),
		Garbage:    r.metrics.Garbage.Load(),
		Rejected:   r.metrics.Rejected.Load(),
		Stale:      r.metrics.Stale.Load(),
		Ahead:      r.metrics.Ahead.Load(),
	}
}

// raiseFloorLocked adopts floor f if it is ahead of the session's, by
// serial-number comparison (IDs wrap at 2^32), and evicts every cached
// reply below it. The first request of a session sets the floor outright.
func (r *Responder) raiseFloorLocked(f uint32) {
	if !r.started {
		r.floor, r.started = f, true
		return
	}
	passed := f - r.floor
	if int32(passed) <= 0 {
		return
	}
	if uint32(len(r.cache)) < passed {
		for id, e := range r.cache {
			if int32(id-f) < 0 {
				r.evictLocked(id, e)
			}
		}
	} else {
		for id := r.floor; id != f; id++ {
			if e, ok := r.cache[id]; ok {
				r.evictLocked(id, e)
			}
		}
	}
	r.floor = f
}

// evictLocked drops id's reply from the cache, recycling its entry unless
// a goroutine still reads it (releaseLocked recycles it then).
func (r *Responder) evictLocked(id uint32, e *respEntry) {
	delete(r.cache, id)
	e.evicted = true
	if e.refs == 0 {
		recycleEntryLocked(e)
	}
}

// releaseLocked drops one reader's reference to e.
func (r *Responder) releaseLocked(e *respEntry) {
	e.refs--
	if e.refs == 0 && e.evicted {
		recycleEntryLocked(e)
	}
}

// recycleEntryLocked returns an entry no goroutine references to the pool,
// keeping its buffer's capacity for the next reply.
//
//edmlint:allow pooledescape the pool is the entries' own storage once the floor has passed them
func recycleEntryLocked(e *respEntry) {
	e.enc = e.enc[:0]
	e.done, e.evicted = false, false
	entryPool.Put(e)
}

// Deliver is the inbound datagram path for one client's requests.
//
//edmlint:hotpath one Deliver per request datagram
func (r *Responder) Deliver(p []byte) {
	m := getMsg()
	if err := DecodeInto(m, p); err != nil {
		putMsg(m)
		r.metrics.Garbage.Inc()
		return
	}
	if !m.Kind.IsRequest() {
		putMsg(m)
		r.metrics.Rejected.Inc()
		return
	}
	r.metrics.RecvByKind[m.Kind].Inc()
	r.mu.Lock()
	r.raiseFloorLocked(m.Floor)
	if ahead := m.ID - r.floor; int32(ahead) < 0 || ahead >= DefaultResponderWindow {
		// Below the floor: a late duplicate of a call the client has
		// retired, whose reply is gone; it must not execute again. Past
		// the window: dropped to bound the cache; the client retransmits.
		r.mu.Unlock()
		if int32(ahead) < 0 {
			r.metrics.Stale.Inc()
		} else {
			r.metrics.Ahead.Inc()
		}
		putMsg(m)
		return
	}
	if e, ok := r.cache[m.ID]; ok {
		// Duplicate: wait out a still-running first execution, then replay
		// its response without re-executing. The reference pins the entry
		// so eviction cannot recycle its buffer mid-replay.
		e.refs++
		for !e.done {
			r.waiting++
			r.filled.Wait()
			r.waiting--
		}
		enc := e.enc
		r.mu.Unlock()
		r.metrics.Duplicates.Inc()
		putMsg(m)
		r.pipe.Send(enc)
		r.mu.Lock()
		r.releaseLocked(e)
		r.mu.Unlock()
		return
	}
	e := entryPool.Get().(*respEntry)
	e.refs = 1
	r.cache[m.ID] = e
	scratch := e.enc
	r.mu.Unlock()
	r.metrics.Requests.Inc()

	resp := getMsg()
	resp.Kind = m.Kind.Response()
	resp.ID = m.ID
	r.handler(m, resp)
	resp.ID = m.ID
	enc, err := resp.AppendEncode(scratch[:0])
	if err != nil {
		// An over-large response is a handler bug; answer with a status
		// the client can surface instead of going silent.
		resp.Reset()
		resp.Kind = m.Kind.Response()
		resp.ID = m.ID
		resp.Status = StatusProto
		enc, _ = resp.AppendEncode(scratch[:0])
	}
	putMsg(resp)
	putMsg(m)
	r.mu.Lock()
	e.enc = enc
	e.done = true
	wake := r.waiting > 0
	r.mu.Unlock()
	if wake {
		r.filled.Broadcast()
	}
	r.pipe.Send(enc)
	r.mu.Lock()
	r.releaseLocked(e)
	r.mu.Unlock()
}
