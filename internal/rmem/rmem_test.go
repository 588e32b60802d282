package rmem

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/memctl"
	"repro/internal/sim"
	"repro/internal/wire"
)

// loopClient stands up a server (if nil, a fresh one) and a connected client
// over a loopback with the given fault hook.
func loopClient(t *testing.T, srv *Server, ccfg ClientConfig, fault func(sim.Time, wire.Dir, []byte) wire.Fault) (*Server, *Client, *wire.Loopback) {
	t.Helper()
	if srv == nil {
		var err error
		srv, err = NewServer(ServerConfig{Geometry: Geometry{SlabBytes: 1 << 20, Slots: 64, SlotBytes: 1024}})
		if err != nil {
			t.Fatal(err)
		}
	}
	if ccfg.Retry.RetryTimeout == 0 {
		ccfg.Retry = wire.ConnConfig{RetryTimeout: 5 * time.Millisecond, MaxRetries: 4}
	}
	lb := wire.NewLoopback(wire.LoopbackConfig{Fault: fault})
	client := NewClient(lb.ClientPipe(), ccfg)
	lb.BindServer(srv.NewSession(lb.ServerPipe()).Deliver)
	lb.BindClient(client.Deliver)
	if err := client.Connect(); err != nil {
		t.Fatalf("connect: %v", err)
	}
	return srv, client, lb
}

func TestHandshakeAdoptsGeometry(t *testing.T) {
	srv, client, _ := loopClient(t, nil, ClientConfig{}, nil)
	if got, want := client.Geometry(), srv.Geometry(); got != want {
		t.Fatalf("client geometry %+v, server %+v", got, want)
	}
	if st := srv.Stats(); st.Hellos != 1 {
		t.Errorf("server stats %+v", st)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	_, client, _ := loopClient(t, nil, ClientConfig{}, nil)
	data := bytes.Repeat([]byte{0xc3}, 512)
	if err := client.WriteSync(4096, data); err != nil {
		t.Fatal(err)
	}
	got, err := client.ReadSync(4096, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read returned different bytes than written")
	}
	// Unwritten memory reads as zero, like fresh DRAM in the model.
	zero, err := client.ReadSync(64<<10, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(zero, make([]byte, 16)) {
		t.Fatal("fresh memory not zero")
	}
}

func TestRemoteErrors(t *testing.T) {
	srv, client, _ := loopClient(t, nil, ClientConfig{}, nil)
	slab := srv.Geometry().SlabBytes
	if _, err := client.ReadSync(slab, 8); !errors.Is(err, wire.ErrRemote) {
		t.Errorf("out-of-range read: %v", err)
	}
	if err := client.WriteSync(slab-4, make([]byte, 8)); !errors.Is(err, wire.ErrRemote) {
		t.Errorf("out-of-range write: %v", err)
	}
	if _, err := client.RMWSync(3, memctl.OpFetchAdd, 1); !errors.Is(err, wire.ErrRemote) {
		t.Errorf("unaligned RMW: %v", err)
	}
	if _, err := client.RMWSync(0, memctl.RMWOp(99), 1); !errors.Is(err, wire.ErrRemote) {
		t.Errorf("bad opcode: %v", err)
	}
	if st := srv.Stats(); st.Errors != 4 {
		t.Errorf("server error count %d, want 4 (%+v)", st.Errors, st)
	}
}

func TestRMWMenu(t *testing.T) {
	_, client, _ := loopClient(t, nil, ClientConfig{}, nil)
	const addr = 128
	if _, err := client.RMWSync(addr, memctl.OpSwap, 7); err != nil {
		t.Fatal(err)
	}
	if v, err := client.RMWSync(addr, memctl.OpFetchAdd, 3); err != nil || v != 7 {
		t.Fatalf("fetch-add: %d, %v", v, err)
	}
	if v, err := client.RMWSync(addr, memctl.OpCAS, 10, 42); err != nil || v != 1 {
		t.Fatalf("cas(10->42): %d, %v", v, err)
	}
	if v, err := client.RMWSync(addr, memctl.OpCAS, 10, 77); err != nil || v != 0 {
		t.Fatalf("cas(stale) should fail: %d, %v", v, err)
	}
	got, err := client.ReadSync(addr, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 42 {
		t.Fatalf("final word %v", got)
	}
}

// TestRetransmissionRecovers is the acceptance-path e2e: a dropped datagram
// is retried by the reliable layer and the operation still succeeds.
func TestRetransmissionRecovers(t *testing.T) {
	var mu sync.Mutex
	dropped := 0
	// Drop the first two post-handshake request datagrams.
	fault := func(_ sim.Time, dir wire.Dir, p []byte) wire.Fault {
		mu.Lock()
		defer mu.Unlock()
		m, err := wire.Decode(p)
		if err == nil && dir == wire.ToServer && m.Kind == wire.KindWREQ && dropped < 2 {
			dropped++
			return wire.FaultDrop
		}
		return wire.FaultNone
	}
	srv, client, lb := loopClient(t, nil, ClientConfig{}, fault)
	if err := client.WriteSync(0, []byte("persist me")); err != nil {
		t.Fatalf("write across drops: %v", err)
	}
	got, err := client.ReadSync(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "persist me" {
		t.Fatalf("read back %q", got)
	}
	if dropped != 2 {
		t.Fatalf("fault hook dropped %d datagrams", dropped)
	}
	if st := lb.Stats(); st.Dropped != 2 {
		t.Errorf("loopback stats %+v", st)
	}
	if st := srv.Stats(); st.Writes != 1 {
		t.Errorf("server executed %d writes, want exactly 1 (%+v)", st.Writes, st)
	}
}

// TestDuplicateRMWExactlyOnce: dropping every first response forces a
// retransmission of every request; the reply cache must keep the fetch-add
// count exact.
func TestDuplicateRMWExactlyOnce(t *testing.T) {
	seen := map[uint32]bool{}
	var mu sync.Mutex
	fault := func(_ sim.Time, dir wire.Dir, p []byte) wire.Fault {
		if dir != wire.ToClient {
			return wire.FaultNone
		}
		m, err := wire.Decode(p)
		if err != nil || m.Kind != wire.KindRMWRESP {
			return wire.FaultNone
		}
		mu.Lock()
		defer mu.Unlock()
		if !seen[m.ID] {
			seen[m.ID] = true
			return wire.FaultDrop
		}
		return wire.FaultNone
	}
	_, client, _ := loopClient(t, nil, ClientConfig{}, fault)
	const rounds = 50
	for i := 0; i < rounds; i++ {
		if _, err := client.RMWSync(0, memctl.OpFetchAdd, 1); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	v, err := client.RMWSync(0, memctl.OpFetchAdd, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v != rounds {
		t.Fatalf("counter = %d after %d increments: duplicates executed", v, rounds)
	}
}

// TestRMWAtomicityConcurrentClients hammers one counter word from several
// concurrent client sessions; the slab lock must keep every increment.
func TestRMWAtomicityConcurrentClients(t *testing.T) {
	srv, err := NewServer(ServerConfig{Geometry: Geometry{SlabBytes: 1 << 20, Slots: 16, SlotBytes: 64}})
	if err != nil {
		t.Fatal(err)
	}
	const (
		clients = 4
		rounds  = 200
	)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		_, client, _ := loopClient(t, srv, ClientConfig{}, nil)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer client.Close()
			for j := 0; j < rounds; j++ {
				if _, err := client.RMWSync(0, memctl.OpFetchAdd, 1); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	_, check, _ := loopClient(t, srv, ClientConfig{}, nil)
	v, err := check.RMWSync(0, memctl.OpFetchAdd, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v != clients*rounds {
		t.Fatalf("counter = %d, want %d: lost increments under concurrency", v, clients*rounds)
	}
}

// TestWindowFailFast mirrors edm.ErrTooManyOut: with the transport dark and
// the window full, the next op is rejected immediately.
func TestWindowFailFast(t *testing.T) {
	fault := func(_ sim.Time, dir wire.Dir, _ []byte) wire.Fault {
		if dir == wire.ToServer {
			return wire.FaultDrop
		}
		return wire.FaultNone
	}
	srv, err := NewServer(ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// A dark transport: requests vanish, so the window fills and stays full.
	dark := wire.NewLoopback(wire.LoopbackConfig{Fault: fault})
	darkClient := NewClient(dark.ClientPipe(),
		ClientConfig{Window: 4, Retry: wire.ConnConfig{RetryTimeout: time.Minute, MaxRetries: 1}})
	dark.BindServer(srv.NewSession(dark.ServerPipe()).Deliver)
	dark.BindClient(darkClient.Deliver)
	// Handshake would hang (requests dropped); skip Connect and use raw reads.
	for i := 0; i < 4; i++ {
		if err := darkClient.Read(0, 8, func([]byte, error) {}); err != nil {
			t.Fatalf("read %d rejected early: %v", i, err)
		}
	}
	if err := darkClient.Read(0, 8, func([]byte, error) {}); !errors.Is(err, ErrTooManyOut) {
		t.Fatalf("5th read: %v, want ErrTooManyOut", err)
	}
	if st := darkClient.Stats(); st.WindowFull != 1 {
		t.Errorf("client stats %+v", st)
	}
	darkClient.Close()
}

func TestKVAndBatch(t *testing.T) {
	_, client, _ := loopClient(t, nil, ClientConfig{}, nil)
	geo := client.Geometry()
	if err := client.PutSync(3, []byte("value-3")); err != nil {
		t.Fatal(err)
	}
	got, err := client.GetSync(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != geo.SlotBytes || string(got[:7]) != "value-3" {
		t.Fatalf("slot read %d bytes, prefix %q", len(got), got[:7])
	}
	if err := client.PutSync(geo.Slots, []byte("x")); !errors.Is(err, ErrBadKey) {
		t.Errorf("put past last slot: %v", err)
	}
	if err := client.PutSync(0, make([]byte, geo.SlotBytes+1)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversize put: %v", err)
	}

	// Batch: pipelined puts then gets across the window boundary.
	b := client.NewBatch()
	for k := 0; k < 40; k++ {
		b.Put(k, []byte(fmt.Sprintf("slot-%02d", k)))
	}
	if _, err := b.Flush(); err != nil {
		t.Fatalf("batch put: %v", err)
	}
	for k := 0; k < 40; k++ {
		b.Get(k)
	}
	ops, err := b.Flush()
	if err != nil {
		t.Fatalf("batch get: %v", err)
	}
	for _, op := range ops {
		want := fmt.Sprintf("slot-%02d", op.Key)
		if string(op.Value[:len(want)]) != want {
			t.Fatalf("slot %d read back %q", op.Key, op.Value[:len(want)])
		}
	}
}

func TestServerConfigValidation(t *testing.T) {
	if _, err := NewServer(ServerConfig{Geometry: Geometry{SlabBytes: 1 << 20, Slots: 10, SlotBytes: 1 << 19}}); err == nil {
		t.Error("slots overflowing the slab accepted")
	}
	if _, err := NewServer(ServerConfig{Geometry: Geometry{SlotBytes: wire.MaxData + 1}}); err == nil {
		t.Error("slot larger than a datagram accepted")
	}
	srv, err := NewServer(ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	g := srv.Geometry()
	if g.SlabBytes == 0 || g.Slots == 0 || g.SlotBytes == 0 {
		t.Fatalf("defaults not filled: %+v", g)
	}
}

// TestUDPEndToEnd runs the full stack over real sockets: UDP server glue,
// handshake, reads/writes/RMWs from two concurrent clients.
func TestUDPEndToEnd(t *testing.T) {
	srv, err := NewServer(ServerConfig{Geometry: Geometry{SlabBytes: 1 << 20, Slots: 32, SlotBytes: 256}})
	if err != nil {
		t.Fatal(err)
	}
	us, err := wire.ListenUDP("127.0.0.1:0", func(_ string, reply wire.Pipe) func([]byte) {
		return srv.NewSession(reply).Deliver
	})
	if err != nil {
		t.Fatal(err)
	}
	defer us.Close()

	dial := func() *Client {
		uc, err := wire.DialUDP(us.Addr())
		if err != nil {
			t.Fatal(err)
		}
		client := NewClient(uc, ClientConfig{Retry: wire.ConnConfig{RetryTimeout: 100 * time.Millisecond, MaxRetries: 10}})
		go uc.Run(client.Deliver)
		if err := client.Connect(); err != nil {
			t.Fatal(err)
		}
		return client
	}

	// The shared counter lives in the last slot so it cannot collide with
	// the per-client kv slots written below.
	counter := uint64(31) * 256
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		i := i
		client := dial()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer client.Close()
			for j := 0; j < 50; j++ {
				if _, err := client.RMWSync(counter, memctl.OpFetchAdd, 1); err != nil {
					errs <- fmt.Errorf("client %d rmw %d: %w", i, j, err)
					return
				}
			}
			val := []byte(fmt.Sprintf("client-%d", i))
			if err := client.PutSync(i, val); err != nil {
				errs <- err
				return
			}
			got, err := client.GetSync(i)
			if err != nil {
				errs <- err
				return
			}
			if string(got[:len(val)]) != string(val) {
				errs <- fmt.Errorf("client %d read back %q", i, got[:len(val)])
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	check := dial()
	defer check.Close()
	v, err := check.RMWSync(counter, memctl.OpFetchAdd, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 100 {
		t.Fatalf("UDP concurrent counter = %d, want 100", v)
	}
}
