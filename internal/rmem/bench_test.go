// Benchmarks for the live service's client hot path. Run with:
//
//	go test -bench=. -benchmem ./internal/rmem
//
// BenchmarkClientPipelining is the headline number: sustained slot-read
// throughput through the bounded-outstanding window over the in-process
// loopback (no kernel UDP cost), reported as ops/s and MB/s.
package rmem

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

func benchPair(b *testing.B, window int) *Client {
	b.Helper()
	srv, err := NewServer(ServerConfig{Geometry: Geometry{SlabBytes: 1 << 24, Slots: 4096, SlotBytes: 1024}})
	if err != nil {
		b.Fatal(err)
	}
	lb := wire.NewLoopback(wire.LoopbackConfig{})
	client := NewClient(lb.ClientPipe(), ClientConfig{Window: window,
		Retry: wire.ConnConfig{RetryTimeout: time.Second, MaxRetries: 3}})
	lb.BindServer(srv.NewSession(lb.ServerPipe()).Deliver)
	lb.BindClient(client.Deliver)
	if err := client.Connect(); err != nil {
		b.Fatal(err)
	}
	return client
}

// BenchmarkClientRoundTrip measures one closed-loop remote read through the
// full client/server stack.
func BenchmarkClientRoundTrip(b *testing.B) {
	for _, size := range []int{64, 1024, 16384} {
		b.Run(fmt.Sprintf("read=%d", size), func(b *testing.B) {
			client := benchPair(b, 1)
			// Prime the buffer pools and free lists at this transfer size so
			// one-time pool misses don't pollute allocs/op on short runs.
			for i := 0; i < 64; i++ {
				if _, err := client.ReadSync(uint64(i%1024)*64, size); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.ReadSync(uint64(i%1024)*64, size); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}

// BenchmarkClientPipelining measures batched slot reads pushed through the
// outstanding window from concurrent issuers — the live analogue of the
// paper's pipelined remote reads.
func BenchmarkClientPipelining(b *testing.B) {
	for _, window := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			client := benchPair(b, window)
			slot := client.Geometry().SlotBytes
			b.SetBytes(int64(slot))
			b.ResetTimer()
			var wg sync.WaitGroup
			issuers := 4
			per := b.N / issuers
			for g := 0; g < issuers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						batch := client.NewBatch()
						batch.Get((g*per + i) % 4096)
						if _, err := batch.Flush(); err != nil {
							b.Error(err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			b.ReportMetric(float64(per*issuers)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}

// pipelinedDriver issues asynchronous reads through a channel semaphore with
// one reused callback, so its steady-state loop performs no allocations of
// its own — any allocs/op a benchmark reports come from the client/server
// stack under test.
type pipelinedDriver struct {
	client *Client
	sem    chan struct{}
	cb     func([]byte, error)
	errs   atomic.Uint64
}

func newPipelinedDriver(client *Client, window int) *pipelinedDriver {
	d := &pipelinedDriver{client: client, sem: make(chan struct{}, window)}
	d.cb = func(_ []byte, err error) {
		if err != nil {
			d.errs.Add(1)
		}
		<-d.sem
	}
	return d
}

// read blocks for a semaphore slot (bounding outstanding ops to the client
// window, so the fail-fast path never trips) and issues one async read.
func (d *pipelinedDriver) read(addr uint64, n int) error {
	d.sem <- struct{}{}
	return d.client.Read(addr, n, d.cb)
}

// drain waits for every outstanding read to complete.
func (d *pipelinedDriver) drain() {
	for i := 0; i < cap(d.sem); i++ {
		d.sem <- struct{}{}
	}
	for i := 0; i < cap(d.sem); i++ {
		<-d.sem
	}
}

// warm runs the stack to steady state before the measured region: pools
// populated, call records primed, the responder's reply cache sized to the
// ack-floor span and recycling entries as the floor passes them. The count
// is kept past wire.DefaultResponderWindow so the IDs have also run beyond
// the span the server accepts above a floor.
func (d *pipelinedDriver) warm(b *testing.B, addrOf func(i int) uint64, size int) {
	b.Helper()
	for i := 0; i < wire.DefaultResponderWindow+1024; i++ {
		if err := d.read(addrOf(i), size); err != nil {
			b.Fatal(err)
		}
	}
	d.drain()
}

// BenchmarkPipelinedRead is the allocation-discipline benchmark: sustained
// asynchronous reads through the pooled client, reliable layer, responder,
// and sharded server. The acceptance bar is 0 allocs/op in steady state.
func BenchmarkPipelinedRead(b *testing.B) {
	const size, window = 64, 64
	client := benchPair(b, window)
	d := newPipelinedDriver(client, window)
	addrOf := func(i int) uint64 { return uint64(i%1024) * 64 }
	d.warm(b, addrOf, size)
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.read(addrOf(i), size); err != nil {
			b.Fatal(err)
		}
	}
	d.drain()
	b.StopTimer()
	if n := d.errs.Load(); n > 0 {
		b.Fatalf("%d reads failed", n)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
}

// BenchmarkPipelinedReadParallel measures multi-core scaling: one sharded
// server, one session per GOMAXPROCS goroutine, each hammering a disjoint
// slab range so sessions land on different slab-lock shards.
func BenchmarkPipelinedReadParallel(b *testing.B) {
	const size, window = 64, 64
	const slab = 1 << 26
	srv, err := NewServer(ServerConfig{Geometry: Geometry{SlabBytes: slab, Slots: 4096, SlotBytes: 1024}})
	if err != nil {
		b.Fatal(err)
	}
	procs := runtime.GOMAXPROCS(0)
	span := (uint64(slab) / uint64(procs)) &^ 4095
	drivers := make([]*pipelinedDriver, procs)
	for i := range drivers {
		lb := wire.NewLoopback(wire.LoopbackConfig{})
		client := NewClient(lb.ClientPipe(), ClientConfig{Window: window,
			Retry: wire.ConnConfig{RetryTimeout: time.Second, MaxRetries: 3}})
		lb.BindServer(srv.NewSession(lb.ServerPipe()).Deliver)
		lb.BindClient(client.Deliver)
		if err := client.Connect(); err != nil {
			b.Fatal(err)
		}
		d := newPipelinedDriver(client, window)
		base := uint64(i) * span
		d.warm(b, func(j int) uint64 { return base + uint64(j%512)*64 }, size)
		drivers[i] = d
	}
	var next atomic.Int64
	var total atomic.Int64
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		idx := int(next.Add(1) - 1)
		// RunParallel launches exactly GOMAXPROCS goroutines unless
		// SetParallelism raises it; each gets a private session.
		d := drivers[idx%procs]
		base := (uint64(idx) % uint64(procs)) * span
		n := 0
		for pb.Next() {
			if err := d.read(base+uint64(n%512)*64, size); err != nil {
				b.Error(err)
				return
			}
			n++
		}
		d.drain()
		total.Add(int64(n))
	})
	b.StopTimer()
	for _, d := range drivers {
		if n := d.errs.Load(); n > 0 {
			b.Fatalf("%d reads failed", n)
		}
	}
	b.ReportMetric(float64(total.Load())/b.Elapsed().Seconds(), "ops/s")
}

// BenchmarkClientRoundTripTelemetry isolates the instrumentation overhead
// on the closed-loop read path: "noop" is the default wiring (unregistered
// metrics, no clock, no ring — what the counters cost when nobody looks),
// "full" adds a registered registry on both ends, wall-clock latency
// histograms, and the op trace ring. Compare against the plain
// BenchmarkClientRoundTrip/read=64 to see the total telemetry bill; the
// acceptance bar is <2% on this path.
func BenchmarkClientRoundTripTelemetry(b *testing.B) {
	const size = 64
	variants := []struct {
		name  string
		build func(b *testing.B) *Client
	}{
		{"noop", func(b *testing.B) *Client { return benchPair(b, 1) }},
		{"full", func(b *testing.B) *Client {
			reg := telemetry.NewRegistry()
			ring := telemetry.NewTraceRing(1024)
			//edmlint:allow walltime the benchmark measures the real cost of wall-clock instrumentation
			nowNS := func() int64 { return time.Now().UnixNano() }
			srv, err := NewServer(ServerConfig{
				Geometry:  Geometry{SlabBytes: 1 << 24, Slots: 4096, SlotBytes: 1024},
				Metrics:   NewServerMetrics(reg),
				Responder: wire.NewResponderMetrics(reg),
				NowNS:     nowNS, Trace: ring,
			})
			if err != nil {
				b.Fatal(err)
			}
			lb := wire.NewLoopback(wire.LoopbackConfig{})
			client := NewClient(lb.ClientPipe(), ClientConfig{Window: 1,
				Retry:   wire.ConnConfig{RetryTimeout: time.Second, MaxRetries: 3},
				Metrics: NewClientMetrics(reg), NowNS: nowNS, Trace: ring})
			lb.BindServer(srv.NewSession(lb.ServerPipe()).Deliver)
			lb.BindClient(client.Deliver)
			if err := client.Connect(); err != nil {
				b.Fatal(err)
			}
			return client
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			client := v.build(b)
			for i := 0; i < 64; i++ {
				if _, err := client.ReadSync(uint64(i%1024)*64, size); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.ReadSync(uint64(i%1024)*64, size); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}
