//edmlint:allow walltime the benchmark measures wall-clock latency, throughput and set-up time of the live service, like the commands under cmd/

package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/memctl"
	"repro/internal/rmem"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// memClient is the op surface the benchmark issues through: a bare
// rmem.Client or a cluster.Client.
type memClient interface {
	Read(addr uint64, n int, cb func([]byte, error)) error
	Write(addr uint64, data []byte, cb func(error)) error
	RMW(addr uint64, op memctl.RMWOp, args []uint64, cb func(uint64, error)) error
	ReadSync(addr uint64, n int) ([]byte, error)
}

// stack is one workload's live service: servers, transports, clients.
type stack struct {
	sp        spec
	seed      uint64 // of the cluster map
	mc        memClient
	servers   []*rmem.Server
	responder *wire.ResponderMetrics // shared by every session, as in edmd
	listeners []*wire.UDPServer
	clients   []*rmem.Client
	cc        *cluster.Client
	tr        *tracer        // nil when untraced
	runs      sync.WaitGroup // UDP client read loops
}

// buildStack builds the servers the way edmd does by default (one shared
// registry, no clock, no trace ring) and the clients the way edmload does
// (window at the depth, or four times it per node under a cluster;
// 20 ms x 5 retries; a wall clock for the client histograms). tr, when
// non-nil, wraps every pipe, deliver func and the server handler.
func buildStack(sp spec, seed uint64, tr *tracer) (*stack, error) {
	st := &stack{sp: sp, seed: seed, tr: tr}
	reg := telemetry.NewRegistry()
	st.responder = wire.NewResponderMetrics(reg)
	wall := func() int64 { return time.Now().UnixNano() }
	ccfg := rmem.ClientConfig{Window: sp.depth,
		Retry: wire.ConnConfig{RetryTimeout: 20 * time.Millisecond, MaxRetries: 5}, NowNS: wall}
	if sp.nodes > 1 {
		ccfg.Window = min(4*sp.depth, rmem.MaxWindow)
	}
	for node := 0; node < sp.nodes; node++ {
		srv, err := rmem.NewServer(rmem.ServerConfig{
			Geometry:  rmem.Geometry{SlabBytes: slabBytes, SlotBytes: 4096},
			Metrics:   rmem.NewServerMetrics(reg),
			Responder: st.responder,
		})
		if err != nil {
			st.close()
			return nil, err
		}
		st.servers = append(st.servers, srv)
		session := func(reply wire.Pipe) func([]byte) {
			if tr == nil {
				return srv.NewSession(reply).Deliver
			}
			// NewSession's config, with the handler wrapped.
			r := wire.NewResponder(tr.serverPipe(node, reply),
				wire.ResponderConfig{Metrics: st.responder}, tr.handler(node, srv.Handle))
			return tr.serverDeliver(node, r.Deliver)
		}
		var client *rmem.Client
		if sp.udp {
			us, err := wire.ListenUDP("127.0.0.1:0", func(_ string, reply wire.Pipe) func([]byte) {
				return session(reply)
			})
			if err != nil {
				st.close()
				return nil, err
			}
			us.SetMetrics(wire.NewUDPServerMetrics(reg))
			st.listeners = append(st.listeners, us)
			uc, err := wire.DialUDP(us.Addr())
			if err != nil {
				st.close()
				return nil, err
			}
			client = rmem.NewClient(tr.clientPipe(node, uc), ccfg)
			deliver := tr.clientDeliver(node, client.Deliver)
			st.runs.Add(1)
			go func() {
				defer st.runs.Done()
				uc.Run(deliver)
			}()
		} else {
			lb := wire.NewLoopback(wire.LoopbackConfig{})
			lb.BindServer(session(lb.ServerPipe()))
			client = rmem.NewClient(tr.clientPipe(node, lb.ClientPipe()), ccfg)
			lb.BindClient(tr.clientDeliver(node, client.Deliver))
		}
		st.clients = append(st.clients, client)
		if err := client.Connect(); err != nil {
			st.close()
			return nil, fmt.Errorf("connect node %d: %w", node, err)
		}
	}
	if sp.nodes == 1 {
		st.mc = st.clients[0]
		return st, nil
	}
	cc, err := cluster.New(st.clients, cluster.Config{
		Seed: seed, Metrics: cluster.NewMetrics(reg, sp.nodes), NowNS: wall})
	if err != nil {
		st.close()
		return nil, err
	}
	st.cc, st.mc = cc, cc
	return st, nil
}

// close tears the stack down and waits for its read loops to end.
func (st *stack) close() error {
	var errs []error
	if st.cc != nil {
		errs = append(errs, st.cc.Close())
	} else {
		for _, c := range st.clients {
			errs = append(errs, c.Close())
		}
	}
	for _, us := range st.listeners {
		errs = append(errs, us.Close())
	}
	st.runs.Wait()
	return errors.Join(errs...)
}

// prefill writes the pattern over the data region, depth writes in flight.
func (st *stack) prefill(p *pattern) error {
	const chunk = maxOpBytes
	sem := make(chan struct{}, st.sp.depth)
	errc := make(chan error, 1)
	var wg sync.WaitGroup
	for a := uint64(0); a < dataBytes; a += chunk {
		sem <- struct{}{}
		wg.Add(1)
		if err := st.mc.Write(a, p.at(a, chunk), func(err error) {
			if err != nil {
				select {
				case errc <- err:
				default:
				}
			}
			<-sem
			wg.Done()
		}); err != nil {
			return fmt.Errorf("prefill at %d: %w", a, err)
		}
	}
	wg.Wait()
	select {
	case err := <-errc:
		return fmt.Errorf("prefill: %w", err)
	default:
		return nil
	}
}

// counterSum reads the counter region back and sums its words.
func (st *stack) counterSum() (uint64, error) {
	var sum uint64
	for a := uint64(dataBytes); a < slabBytes; a += maxOpBytes {
		b, err := st.mc.ReadSync(a, maxOpBytes)
		if err != nil {
			return 0, fmt.Errorf("read counters at %d: %w", a, err)
		}
		for i := 0; i+8 <= len(b); i += 8 {
			sum += binary.LittleEndian.Uint64(b[i:])
		}
	}
	return sum, nil
}

// sendCounts reports the traced pipes' send calls, datagrams and bytes.
func (st *stack) sendCounts() (calls, dgrams, bytes uint64) {
	if st.tr == nil {
		return 0, 0, 0
	}
	return st.tr.sendCalls.Load(), st.tr.dgrams.Load(), st.tr.dgramBytes.Load()
}

// layerCounts is a snapshot of the counters the layers export.
type layerCounts struct {
	retransmits, timeouts, windowFull, replays uint64
	serverOps                                  uint64
	modeledDRAMps                              uint64
	nodeOps, splitOps, failovers               uint64
}

func (st *stack) counts() layerCounts {
	var c layerCounts
	for _, cl := range st.clients {
		cs := cl.ConnStats()
		c.retransmits += cs.Retransmit
		c.timeouts += cs.Timeouts
		c.windowFull += cl.Stats().WindowFull
	}
	c.replays = st.responder.Duplicates.Load()
	// The servers share one registry, so each Stats is already the total.
	ss := st.servers[0].Stats()
	c.serverOps = ss.Reads + ss.Writes + ss.RMWs
	c.modeledDRAMps = uint64(ss.ModeledDRAM)
	if st.cc != nil {
		m := st.cc.Metrics()
		for _, n := range m.NodeOps {
			c.nodeOps += n.Load()
		}
		c.splitOps = m.SplitOps.Load()
		c.failovers = m.Failovers.Load()
	}
	return c
}

func (a layerCounts) sub(b layerCounts) layerCounts {
	return layerCounts{
		retransmits: a.retransmits - b.retransmits, timeouts: a.timeouts - b.timeouts,
		windowFull: a.windowFull - b.windowFull, replays: a.replays - b.replays,
		serverOps: a.serverOps - b.serverOps, modeledDRAMps: a.modeledDRAMps - b.modeledDRAMps,
		nodeOps: a.nodeOps - b.nodeOps, splitOps: a.splitOps - b.splitOps, failovers: a.failovers - b.failovers,
	}
}
