// Package rmem is the live disaggregated-memory service: a server that
// terminates wire requests against a slab of memory with memctl-style
// semantics (byte-addressed reads/writes plus the NIC-side atomic RMW menu
// of §3.2.1), and a client library that mirrors edm.Host's
// bounded-outstanding-ID discipline — asynchronous pipelining, per-ID
// deadlines via the reliable layer's retry budget, and a fail-fast error
// when the window is exhausted. On top of the raw byte API the client
// exposes the kvstore-shaped fixed-slot Get/Put of §4.2.2 with optional
// batching.
//
// The server is transport-agnostic: cmd/edmd mounts it on wire.UDPServer,
// tests and the scenario runner's live backend mount it on wire.Loopback.
package rmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/memctl"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Geometry describes the server's memory slab and its kvstore-compatible
// slot layout. It rides in the HELLO-ACK payload so clients self-configure.
type Geometry struct {
	// SlabBytes is the byte-addressable memory size.
	SlabBytes uint64
	// Slots and SlotBytes define the fixed-slot key-value layout carved
	// from the front of the slab (key k lives at [k*SlotBytes, (k+1)*SlotBytes)).
	Slots     int
	SlotBytes int
}

// geometryBytes is the encoded HELLO-ACK payload size.
const geometryBytes = 16

// Encode renders the geometry as the HELLO-ACK payload.
func (g Geometry) Encode() []byte {
	b := make([]byte, geometryBytes)
	binary.LittleEndian.PutUint64(b, g.SlabBytes)
	binary.LittleEndian.PutUint32(b[8:], uint32(g.Slots))
	binary.LittleEndian.PutUint32(b[12:], uint32(g.SlotBytes))
	return b
}

// DecodeGeometry parses a HELLO-ACK payload.
func DecodeGeometry(b []byte) (Geometry, error) {
	if len(b) != geometryBytes {
		return Geometry{}, fmt.Errorf("rmem: geometry payload %d bytes, want %d", len(b), geometryBytes)
	}
	return Geometry{
		SlabBytes: binary.LittleEndian.Uint64(b),
		Slots:     int(binary.LittleEndian.Uint32(b[8:])),
		SlotBytes: int(binary.LittleEndian.Uint32(b[12:])),
	}, nil
}

// DefaultShards is the default slab-lock shard count. It is a fixed
// constant — not derived from GOMAXPROCS — so the shard map, and with it
// the per-shard DRAM-model state, is identical on every machine and
// loopback runs stay seed-deterministic.
const DefaultShards = 16

// ServerConfig sizes the memory node.
type ServerConfig struct {
	Geometry
	// Shards is the slab-lock shard count: the slab is split into
	// contiguous byte ranges, each with its own lock and DRAM model, so
	// concurrent sessions touching different ranges never serialize.
	// Zero means DefaultShards; 1 restores the single-lock behaviour;
	// values above 256 are clamped.
	Shards int
	// Metrics receives the operation counters and service-time histograms.
	// Nil gets a private, unregistered instance, so Stats() always works.
	Metrics *ServerMetrics
	// Responder, when set, aggregates every session's reliability counters.
	// Nil gets a private instance shared across sessions all the same.
	Responder *wire.ResponderMetrics
	// NowNS supplies timestamps for the per-opcode service-time histograms
	// and the trace ring (nanoseconds; wall or virtual). Nil disables both.
	NowNS func() int64
	// Trace, when non-nil, receives one StageServe record per request.
	Trace *telemetry.TraceRing
}

// fill applies defaults and validates.
func (c *ServerConfig) fill() error {
	if c.SlabBytes == 0 {
		c.SlabBytes = 64 << 20
	}
	if c.SlotBytes == 0 {
		c.SlotBytes = 4096
	}
	if c.Slots == 0 {
		c.Slots = int(c.SlabBytes) / c.SlotBytes
	}
	if c.Slots < 0 || c.SlotBytes <= 0 {
		return fmt.Errorf("rmem: invalid slot geometry %d x %d", c.Slots, c.SlotBytes)
	}
	if c.SlotBytes > wire.MaxData {
		return fmt.Errorf("rmem: slot %d bytes exceeds the %d-byte datagram payload", c.SlotBytes, wire.MaxData)
	}
	if need := uint64(c.Slots) * uint64(c.SlotBytes); need > c.SlabBytes {
		return fmt.Errorf("rmem: %d x %d slots need %d bytes, slab has %d", c.Slots, c.SlotBytes, need, c.SlabBytes)
	}
	if c.Shards < 0 {
		return fmt.Errorf("rmem: invalid shard count %d", c.Shards)
	}
	if c.Shards == 0 {
		c.Shards = DefaultShards
	}
	if c.Shards > 256 {
		c.Shards = 256
	}
	return nil
}

// ServerStats counts served operations.
type ServerStats struct {
	Hellos, Byes        uint64
	Reads, Writes, RMWs uint64
	Errors              uint64 // requests answered with a non-OK status
	BytesRead           uint64
	BytesWritten        uint64
	// ModeledDRAM accumulates the memctl-modeled DRAM service time of every
	// access — what the accesses would have cost on the paper's DDR4 model —
	// so live runs can report a simulator-comparable memory-side figure.
	ModeledDRAM sim.Time
}

// shardAlign is the shard-boundary granularity. A multiple of the RMW word
// size (and of memctl's page size), so an aligned 8-byte RMW can never span
// two shards — every atomic executes under exactly one shard lock.
const shardAlign = 4096

// shard is one contiguous byte range of the slab with its own lock and
// DRAM-timing model. Padded to a cache line so neighbouring shard locks
// don't false-share under multi-core contention.
type shard struct {
	mu  sync.Mutex
	mem *memctl.Controller // guarded by mu (Controller is not itself thread-safe)
	_   [48]byte
}

// Server terminates wire requests against a memory slab. The slab lock is
// sharded by contiguous address range: operations on different shards run
// concurrently; an aligned RMW always falls in exactly one shard, so the
// atomic menu stays atomic under concurrent client sessions — the live
// stand-in for the paper's non-preemptible NIC RMW pipeline (§3.2.1). A
// read or write spanning shards locks them piecewise in ascending order;
// such an access is not atomic with respect to a concurrent overlapping
// write (it never was end-to-end: datagram-sized accesses carry no
// transactional guarantee on the wire either).
type Server struct {
	cfg        ServerConfig
	metrics    *ServerMetrics
	geoPayload []byte // pre-encoded HELLO-ACK geometry, immutable
	shardBytes uint64 // bytes per shard (shardAlign-aligned), immutable
	shards     []shard
}

// NewServer builds a memory node with the given slab/slot geometry.
func NewServer(cfg ServerConfig) (*Server, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if cfg.Metrics == nil {
		cfg.Metrics = NewServerMetrics(nil)
	}
	if cfg.Responder == nil {
		cfg.Responder = wire.NewResponderMetrics(nil)
	}
	shardBytes := (cfg.SlabBytes + uint64(cfg.Shards) - 1) / uint64(cfg.Shards)
	shardBytes = (shardBytes + shardAlign - 1) &^ uint64(shardAlign-1)
	shards := make([]shard, int((cfg.SlabBytes+shardBytes-1)/shardBytes))
	for i := range shards {
		mcfg := memctl.DefaultConfig()
		mcfg.Size = shardBytes
		if rest := cfg.SlabBytes - uint64(i)*shardBytes; rest < mcfg.Size {
			mcfg.Size = rest
		}
		//edmlint:allow lockcheck shards are not yet published; no other goroutine can observe them
		shards[i].mem = memctl.New(mcfg)
	}
	return &Server{cfg: cfg, metrics: cfg.Metrics,
		geoPayload: cfg.Geometry.Encode(), shardBytes: shardBytes, shards: shards}, nil
}

// Shards reports the effective shard count.
func (s *Server) Shards() int { return len(s.shards) }

// Geometry reports the slab layout advertised to clients.
func (s *Server) Geometry() Geometry { return s.cfg.Geometry }

// Stats snapshots the operation counters from the server's metrics.
func (s *Server) Stats() ServerStats {
	m := s.metrics
	return ServerStats{
		Hellos:       m.Ops[wire.KindHello].Load(),
		Byes:         m.Ops[wire.KindBye].Load(),
		Reads:        m.Ops[wire.KindRREQ].Load(),
		Writes:       m.Ops[wire.KindWREQ].Load(),
		RMWs:         m.Ops[wire.KindRMWREQ].Load(),
		Errors:       m.Errors.Load(),
		BytesRead:    m.BytesRead.Load(),
		BytesWritten: m.BytesWritten.Load(),
		ModeledDRAM:  sim.Time(m.ModeledDRAMPS.Load()),
	}
}

// Metrics returns the server's metrics instance (never nil after NewServer).
func (s *Server) Metrics() *ServerMetrics { return s.metrics }

// NewSession builds the reliable server half for one client, replying over
// pipe. Each session gets its own reply cache, bounded by the client's ack
// floor; all sessions share the server's responder metrics.
func (s *Server) NewSession(pipe wire.Pipe) *wire.Responder {
	return wire.NewResponder(pipe, wire.ResponderConfig{Metrics: s.cfg.Responder}, s.Handle)
}

// statusOf maps a memctl error to a wire status.
func statusOf(err error) wire.Status {
	switch {
	case err == nil:
		return wire.StatusOK
	case errors.Is(err, memctl.ErrOutOfRange), errors.Is(err, memctl.ErrBadLength):
		return wire.StatusRange
	case errors.Is(err, memctl.ErrBadOpcode), errors.Is(err, memctl.ErrUnaligned):
		return wire.StatusOp
	}
	return wire.StatusProto
}

// grow returns a length-n slice reusing d's capacity.
//
//edmlint:hotpath
func grow(d []byte, n int) []byte {
	if cap(d) < n {
		//edmlint:allow hotpath allocates only until the recycled buffer reaches its high-water mark
		return make([]byte, n)
	}
	return d[:n]
}

// read fills dst from slab address addr, locking the spanned shards
// piecewise in ascending order, and returns the summed modeled latency.
//
//edmlint:hotpath one call per served RREQ
func (s *Server) read(addr uint64, dst []byte) (sim.Time, error) {
	if len(dst) == 0 {
		return 0, memctl.ErrBadLength
	}
	if addr >= s.cfg.SlabBytes || uint64(len(dst)) > s.cfg.SlabBytes-addr {
		return 0, fmt.Errorf("%w: addr=%#x len=%d size=%#x", memctl.ErrOutOfRange, addr, len(dst), s.cfg.SlabBytes)
	}
	var total sim.Time
	for len(dst) > 0 {
		si := int(addr / s.shardBytes)
		base := uint64(si) * s.shardBytes
		n := len(dst)
		if room := base + s.shardBytes - addr; uint64(n) > room {
			n = int(room)
		}
		sh := &s.shards[si]
		sh.mu.Lock()
		lat, err := sh.mem.ReadInto(addr-base, dst[:n])
		sh.mu.Unlock()
		if err != nil {
			return 0, err
		}
		total += lat
		addr += uint64(n)
		dst = dst[n:]
	}
	return total, nil
}

// write stores src at slab address addr, locking the spanned shards
// piecewise in ascending order, and returns the summed modeled latency.
//
//edmlint:hotpath one call per served WREQ
func (s *Server) write(addr uint64, src []byte) (sim.Time, error) {
	if len(src) == 0 {
		return 0, memctl.ErrBadLength
	}
	if addr >= s.cfg.SlabBytes || uint64(len(src)) > s.cfg.SlabBytes-addr {
		return 0, fmt.Errorf("%w: addr=%#x len=%d size=%#x", memctl.ErrOutOfRange, addr, len(src), s.cfg.SlabBytes)
	}
	var total sim.Time
	for len(src) > 0 {
		si := int(addr / s.shardBytes)
		base := uint64(si) * s.shardBytes
		n := len(src)
		if room := base + s.shardBytes - addr; uint64(n) > room {
			n = int(room)
		}
		sh := &s.shards[si]
		sh.mu.Lock()
		lat, err := sh.mem.Write(addr-base, src[:n])
		sh.mu.Unlock()
		if err != nil {
			return 0, err
		}
		total += lat
		addr += uint64(n)
		src = src[n:]
	}
	return total, nil
}

// rmw executes one atomic under its shard's lock. Shard boundaries are
// word-aligned, so an aligned RMW is always single-shard; the unaligned
// check runs first to mirror the controller's error precedence.
//
//edmlint:hotpath one call per served RMWREQ
func (s *Server) rmw(addr uint64, op memctl.RMWOp, args []uint64) (uint64, sim.Time, error) {
	if addr%memctl.WordBytes != 0 {
		return 0, 0, memctl.ErrUnaligned
	}
	if addr >= s.cfg.SlabBytes || memctl.WordBytes > s.cfg.SlabBytes-addr {
		return 0, 0, fmt.Errorf("%w: addr=%#x len=%d size=%#x", memctl.ErrOutOfRange, addr, memctl.WordBytes, s.cfg.SlabBytes)
	}
	si := int(addr / s.shardBytes)
	base := uint64(si) * s.shardBytes
	sh := &s.shards[si]
	sh.mu.Lock()
	result, lat, err := sh.mem.RMW(addr-base, op, args...)
	sh.mu.Unlock()
	return result, lat, err
}

// Handle executes one fresh request, filling resp in place. It is the
// wire.Responder handler; the responder layer has already suppressed
// duplicates, so every call here executes exactly once, and resp arrives
// with Kind/ID pre-set and recycled Data capacity (the zero-alloc path
// reads directly into it).
//
//edmlint:hotpath one Handle per served request
func (s *Server) Handle(m, resp *wire.Msg) {
	var start int64
	if s.cfg.NowNS != nil {
		start = s.cfg.NowNS()
	}
	mt := s.metrics
	if c := mt.Ops[m.Kind]; c != nil {
		c.Inc()
	}
	switch m.Kind {
	case wire.KindHello:
		resp.Data = append(resp.Data[:0], s.geoPayload...)
	case wire.KindBye:
	case wire.KindRREQ:
		if m.Count > wire.MaxData {
			resp.Status = wire.StatusRange
			break
		}
		resp.Data = grow(resp.Data, int(m.Count))
		lat, err := s.read(m.Addr, resp.Data)
		if err != nil {
			resp.Data = resp.Data[:0]
			resp.Status = statusOf(err)
			break
		}
		mt.BytesRead.Add(uint64(len(resp.Data)))
		mt.ModeledDRAMPS.Add(uint64(lat))
	case wire.KindWREQ:
		lat, err := s.write(m.Addr, m.Data)
		if err != nil {
			resp.Status = statusOf(err)
			break
		}
		mt.BytesWritten.Add(uint64(len(m.Data)))
		mt.ModeledDRAMPS.Add(uint64(lat))
	case wire.KindRMWREQ:
		result, lat, err := s.rmw(m.Addr, memctl.RMWOp(m.Op), m.Args)
		if err != nil {
			resp.Status = statusOf(err)
			break
		}
		mt.ModeledDRAMPS.Add(uint64(lat))
		resp.Data = grow(resp.Data, 8)
		binary.LittleEndian.PutUint64(resp.Data, result)
	default:
		resp.Kind = wire.KindByeAck
		resp.Status = wire.StatusProto
	}
	if resp.Status != wire.StatusOK {
		mt.Errors.Inc()
	}
	if s.cfg.NowNS != nil {
		dur := s.cfg.NowNS() - start
		if h := mt.Latency[m.Kind]; h != nil {
			h.Observe(dur)
		}
		if s.cfg.Trace != nil {
			var d uint64
			if dur > 0 {
				d = uint64(dur)
			}
			s.cfg.Trace.Record(uint64(m.ID), telemetry.StageServe, uint8(m.Kind), start, d)
		}
	}
}
