//edmlint:allow walltime the benchmark measures wall-clock latency, throughput and set-up time of the live service, like the commands under cmd/

package main

import (
	"encoding/binary"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// clock reads nanoseconds since a base shared by the driver and the tracer.
type clock struct{ base time.Time }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

// spanKind names a span: one call into a layer's public function, made
// from this package's wrappers.
type spanKind uint8

const (
	spIssue      spanKind = iota // rmem.Client or cluster.Client Read/Write/RMW
	spSend                       // client-side Pipe.Send/SendBatch
	spSrvDeliver                 // the session's deliver func (Responder.Deliver)
	spHandle                     // rmem.Server.Handle
	spReply                      // server-side (reply) Pipe.Send
	spCliDeliver                 // the client's deliver func (rmem.Client.Deliver)
	spCallback                   // the benchmark's completion callback
	numSpanKinds
)

// span is one traced call. Spans of one op share its seq (the driver's
// issue number); wire spans also carry the message ID and node, which link
// a request's client and server sides. Parents are resolved after the run.
type span struct {
	start, end int64
	seq        int64
	id         uint32
	kind       spanKind
	node       uint8
	op         uint8 // issue and handle spans: the op kind
}

// idTableSize bounds the message IDs one node has in flight (the client
// window is at most 64 here), so id%idTableSize never collides.
const idTableSize = 4096

// tracer records spans of sampled ops into preallocated memory. Wrappers
// find an op from what crosses them: a request's address names its slot
// (see inputs), the slot names the op in flight, and the message ID links
// responses back to it.
type tracer struct {
	clock
	in     *inputs
	spans  []span
	n      atomic.Int64
	cur    []atomic.Int64 // per slot: seq of the sampled op in flight, or -1
	cliIDs [][idTableSize]atomic.Uint64
	srvIDs [][idTableSize]atomic.Uint64

	// Totals over every op (sampled or not) while the traced stack runs.
	sendCalls, dgrams, dgramBytes atomic.Uint64
}

func newTracer(c clock, in *inputs, sp spec, capacity int) *tracer {
	tr := &tracer{clock: c, in: in, spans: make([]span, capacity),
		cur:    make([]atomic.Int64, in.depth),
		cliIDs: make([][idTableSize]atomic.Uint64, sp.nodes),
		srvIDs: make([][idTableSize]atomic.Uint64, sp.nodes)}
	for i := range tr.cur {
		tr.cur[i].Store(-1)
	}
	return tr
}

// full reports whether sampling must stop: the rest of the buffer is kept
// for the spans of ops already in flight.
func (tr *tracer) full() bool { return tr.n.Load() >= int64(len(tr.spans))*9/10 }

func (tr *tracer) record(s span) {
	if i := tr.n.Add(1) - 1; i < int64(len(tr.spans)) {
		tr.spans[i] = s
	}
}

// Header fields of an encoded wire message (codec.go): kind at byte 1, the
// message ID at 5..8, the address at 9..16, all little-endian.
const hdrBytes = 21

func peekID(p []byte) (uint32, bool) {
	if len(p) < hdrBytes {
		return 0, false
	}
	return binary.LittleEndian.Uint32(p[5:]), true
}

// seqOfRequest maps a request datagram to its sampled op.
func (tr *tracer) seqOfRequest(p []byte) (seq int64, id uint32, ok bool) {
	id, ok = peekID(p)
	if !ok || !wire.Kind(p[1]).IsRequest() {
		return 0, 0, false
	}
	return tr.seqOfAddr(binary.LittleEndian.Uint64(p[9:])), id, true
}

func (tr *tracer) seqOfAddr(addr uint64) int64 {
	s := tr.in.slotOf(addr)
	if s < 0 {
		return -1
	}
	return tr.cur[s].Load()
}

func bindID(tab *[idTableSize]atomic.Uint64, id uint32, seq int64) {
	tab[id%idTableSize].Store(uint64(id)<<32 | uint64(seq+1))
}

func lookupID(tab *[idTableSize]atomic.Uint64, id uint32) int64 {
	e := tab[id%idTableSize].Load()
	if uint32(e>>32) != id || uint32(e) == 0 {
		return -1
	}
	return int64(uint32(e)) - 1
}

// tracedPipe wraps one direction's Pipe. It keeps the BatchPipe form, so
// the reliable layer batches exactly as it does on the bare pipe. (The
// server's reply pipes have no batched form; their Responder sends one
// datagram at a time.)
type tracedPipe struct {
	tr     *tracer
	inner  wire.Pipe
	batch  wire.BatchPipe // inner's batched form, nil on a reply pipe
	node   uint8
	server bool
}

func (tr *tracer) clientPipe(node int, p wire.Pipe) wire.Pipe {
	if tr == nil {
		return p
	}
	bp, _ := p.(wire.BatchPipe)
	return &tracedPipe{tr: tr, inner: p, batch: bp, node: uint8(node)}
}

func (tr *tracer) serverPipe(node int, p wire.Pipe) wire.Pipe {
	bp, _ := p.(wire.BatchPipe)
	return &tracedPipe{tr: tr, inner: p, batch: bp, node: uint8(node), server: true}
}

// seqOf finds the sampled op behind an outbound datagram: a client request
// by its address (binding its ID for the response), a server reply by the
// ID its request was bound to.
func (p *tracedPipe) seqOf(b []byte) (int64, uint32) {
	if p.server {
		id, ok := peekID(b)
		if !ok {
			return -1, 0
		}
		return lookupID(&p.tr.srvIDs[p.node], id), id
	}
	seq, id, ok := p.tr.seqOfRequest(b)
	if !ok || seq < 0 {
		return -1, 0
	}
	// Bound before the send: the response can arrive before Send returns.
	bindID(&p.tr.cliIDs[p.node], id, seq)
	return seq, id
}

func (p *tracedPipe) count(ps ...[]byte) {
	p.tr.sendCalls.Add(1)
	p.tr.dgrams.Add(uint64(len(ps)))
	var n int
	for _, b := range ps {
		n += len(b)
	}
	p.tr.dgramBytes.Add(uint64(n))
}

func (p *tracedPipe) Send(b []byte) error {
	p.count(b)
	seq, id := p.seqOf(b)
	if seq < 0 {
		return p.inner.Send(b)
	}
	start := p.tr.now()
	err := p.inner.Send(b)
	p.tr.record(span{start: start, end: p.tr.now(), seq: seq, id: id,
		kind: p.kind(), node: p.node})
	return err
}

// SendBatch records one span for the call, attributed to the first
// sampled datagram in it.
func (p *tracedPipe) SendBatch(ps [][]byte) error {
	p.count(ps...)
	seq, id := int64(-1), uint32(0)
	for _, b := range ps {
		if s, i := p.seqOf(b); s >= 0 && seq < 0 {
			seq, id = s, i
		}
	}
	if seq < 0 {
		return p.sendBatch(ps)
	}
	start := p.tr.now()
	err := p.sendBatch(ps)
	p.tr.record(span{start: start, end: p.tr.now(), seq: seq, id: id,
		kind: p.kind(), node: p.node})
	return err
}

func (p *tracedPipe) sendBatch(ps [][]byte) error {
	if p.batch != nil {
		return p.batch.SendBatch(ps)
	}
	for _, b := range ps {
		if err := p.inner.Send(b); err != nil {
			return err
		}
	}
	return nil
}

func (p *tracedPipe) kind() spanKind {
	if p.server {
		return spReply
	}
	return spSend
}

func (p *tracedPipe) Close() error { return p.inner.Close() }

// clientDeliver wraps the func the transport hands response datagrams to.
func (tr *tracer) clientDeliver(node int, deliver func([]byte)) func([]byte) {
	if tr == nil {
		return deliver
	}
	return func(p []byte) {
		id, ok := peekID(p)
		if !ok {
			deliver(p)
			return
		}
		seq := lookupID(&tr.cliIDs[node], id)
		if seq < 0 {
			deliver(p)
			return
		}
		start := tr.now()
		deliver(p)
		tr.record(span{start: start, end: tr.now(), seq: seq, id: id, kind: spCliDeliver, node: uint8(node)})
	}
}

// serverDeliver wraps a session's deliver func.
func (tr *tracer) serverDeliver(node int, deliver func([]byte)) func([]byte) {
	return func(p []byte) {
		seq, id, ok := tr.seqOfRequest(p)
		if !ok || seq < 0 {
			deliver(p)
			return
		}
		bindID(&tr.srvIDs[node], id, seq)
		start := tr.now()
		deliver(p)
		tr.record(span{start: start, end: tr.now(), seq: seq, id: id, kind: spSrvDeliver, node: uint8(node)})
	}
}

// handler wraps rmem.Server.Handle.
func (tr *tracer) handler(node int, h func(req, resp *wire.Msg)) func(req, resp *wire.Msg) {
	return func(req, resp *wire.Msg) {
		seq := tr.seqOfAddr(req.Addr)
		if seq < 0 {
			h(req, resp)
			return
		}
		op := uint8(opRead)
		switch req.Kind {
		case wire.KindWREQ:
			op = opWrite
		case wire.KindRMWREQ:
			op = opRMW
		}
		id := req.ID
		start := tr.now()
		h(req, resp)
		tr.record(span{start: start, end: tr.now(), seq: seq, id: id, kind: spHandle, node: uint8(node), op: op})
	}
}
