package main

import (
	"bytes"
	"fmt"

	"repro/internal/workload"
)

// Op kinds, also the index of every per-kind array in the benchmark.
const (
	opRead = iota
	opWrite
	opRMW
	numKinds
)

var kindNames = [numKinds]string{"read", "write", "rmw"}

// Address layout of every workload's slab (per node; the cluster address
// space has the same size). Reads and writes fall in the data region, which
// is prefilled with the pattern; RMWs fetch-add into the counter region,
// which starts zeroed, so the counters' sum counts acknowledged RMWs.
const (
	slabBytes    = 64 << 20
	counterBytes = 1 << 20
	dataBytes    = slabBytes - counterBytes
	maxOpBytes   = 32 << 10 // the memcached profile's largest value
	// tableOps is how many ops are generated before timing. A run issues
	// them round-robin per slot; one pass covers several seconds of the
	// UDP workloads and about one of the in-process one.
	tableOps = 1 << 20
)

// spec is one workload: the stack it builds and the ops it drives.
type spec struct {
	name      string
	nodes     int  // 1: a bare rmem.Client; 2: a dual-homed cluster.Client
	udp       bool // UDP on the host loopback interface, else wire.Loopback
	depth     int  // ops in flight
	sizes     workload.SizeDist
	readPct   int // the rest after writes are RMWs
	writePct  int
	transport string
}

var specs = []spec{
	{name: "udp-small", nodes: 1, udp: true, depth: 1, sizes: workload.Fixed(64),
		readPct: 90, writePct: 5, transport: "UDP on the host loopback interface, not a real link"},
	{name: "udp-cluster-mixed", nodes: 2, udp: true, depth: 16, sizes: workload.Memcached(),
		readPct: 45, writePct: 50, transport: "UDP on the host loopback interface, not a real link"},
	{name: "inproc-cluster-small", nodes: 2, udp: false, depth: 1, sizes: workload.Fixed(64),
		readPct: 90, writePct: 5, transport: "in-process wire.Loopback"},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// inputs is every op a run may issue, generated before timing. Each of the
// depth slots is one closed-loop caller with its own lane: a disjoint,
// equal share of the data region and of the counter region, so an address
// names the slot (and so the op) it belongs to. Over all slots the
// addresses are uniform over each region.
type inputs struct {
	depth       int
	perSlot     int // ops per slot; op j of slot s is entry s*perSlot+j
	dataLane    uint64
	counterLane uint64
	kind        []uint8
	size        []uint16
	addr        []uint32
}

// genInputs draws kinds, sizes and addresses from named streams of a
// partition rooted at seed, one stream per slot and purpose.
func genInputs(sp spec, seed uint64) *inputs {
	in := &inputs{depth: sp.depth, perSlot: tableOps / sp.depth,
		dataLane:    dataBytes / uint64(sp.depth) &^ 63,
		counterLane: counterBytes / uint64(sp.depth) &^ 7}
	n := in.perSlot * sp.depth
	in.kind = make([]uint8, n)
	in.size = make([]uint16, n)
	in.addr = make([]uint32, n)
	part := workload.NewPartition(seed).Sub("livebench-ops")
	for s := 0; s < sp.depth; s++ {
		kinds, sizes, addrs := part.StreamN("kind", s), part.StreamN("size", s), part.StreamN("addr", s)
		dataBase := uint64(s) * in.dataLane
		counterBase := dataBytes + uint64(s)*in.counterLane
		for j := 0; j < in.perSlot; j++ {
			i := s*in.perSlot + j
			k := opRMW
			switch p := kinds.Intn(100); {
			case p < sp.readPct:
				k = opRead
			case p < sp.readPct+sp.writePct:
				k = opWrite
			}
			in.kind[i] = uint8(k)
			if k == opRMW {
				in.size[i] = 8
				in.addr[i] = uint32(counterBase + (addrs.Uint64()%(in.counterLane/8))*8)
				continue
			}
			sz := sp.sizes.Sample(sizes)
			if sz < 1 {
				sz = 1
			}
			if sz > maxOpBytes {
				sz = maxOpBytes
			}
			in.size[i] = uint16(sz)
			in.addr[i] = uint32(dataBase + (addrs.Uint64()%(in.dataLane-uint64(sz)+1))&^7)
		}
	}
	return in
}

// slotOf maps a slab address to the slot whose lane holds it, or -1.
func (in *inputs) slotOf(addr uint64) int {
	var s uint64
	switch {
	case addr < dataBytes:
		s = addr / in.dataLane
	case addr < slabBytes:
		s = (addr - dataBytes) / in.counterLane
	default:
		return -1
	}
	if s >= uint64(in.depth) {
		return -1
	}
	return int(s)
}

// pattern is the address-derived content of the data region: the byte at
// address a is bytes[a%period]. Every write stores the pattern of its own
// addresses, so any interleaving of writes leaves it intact and every read
// can check its bytes. The period is prime, so a read served from a wrong
// address almost always mismatches.
type pattern struct {
	bytes []byte
}

const patternPeriod = 65521

func newPattern(seed uint64) *pattern {
	r := workload.NewPartition(seed).Stream("livebench-pattern")
	b := make([]byte, patternPeriod+maxOpBytes)
	for i := 0; i < patternPeriod; i++ {
		b[i] = byte(r.Uint64() >> 56)
	}
	copy(b[patternPeriod:], b[:maxOpBytes])
	return &pattern{bytes: b}
}

// at returns the pattern bytes of [addr, addr+n), n <= maxOpBytes.
func (p *pattern) at(addr uint64, n int) []byte {
	off := addr % patternPeriod
	return p.bytes[off : off+uint64(n)]
}

func (p *pattern) check(addr uint64, data []byte) bool {
	return bytes.Equal(data, p.at(addr, len(data)))
}
