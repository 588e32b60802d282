package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"sync"
	"testing"
)

// FuzzDecode throws arbitrary datagrams at the decoder: it must never panic,
// and anything it accepts must re-encode to the exact input (the codec is
// canonical: one datagram per message, no redundant encodings).
func FuzzDecode(f *testing.F) {
	for _, m := range []*Msg{
		{Kind: KindHello},
		{Kind: KindRREQ, ID: 7, Addr: 4096, Count: 64},
		{Kind: KindWREQ, ID: 8, Addr: 0, Count: 3, Data: []byte{1, 2, 3}},
		{Kind: KindRMWREQ, ID: 9, Addr: 8, Op: 2, Args: []uint64{5, 6}},
		{Kind: KindRRESP, ID: 7, Data: bytes.Repeat([]byte{0xfe}, 200)},
	} {
		enc, err := m.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, headerBytes+crcBytes))

	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Decode(b)
		if err != nil {
			return
		}
		enc, err := m.Encode()
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %v", err)
		}
		if !bytes.Equal(enc, b) {
			t.Fatalf("non-canonical datagram:\n in  %x\n out %x", b, enc)
		}
	})
}

// FuzzRoundTrip builds structurally valid messages from fuzzed fields and
// checks Encode/Decode is the identity on them.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint8(KindRREQ), uint8(0), uint8(0), uint32(1), uint64(64), uint32(8), uint64(0), uint8(0), []byte(nil))
	f.Add(uint8(KindRMWREQ), uint8(0), uint8(1), uint32(2), uint64(8), uint32(0), uint64(77), uint8(2), []byte(nil))
	f.Add(uint8(KindWREQ), uint8(0), uint8(0), uint32(3), uint64(128), uint32(5), uint64(0), uint8(0), []byte("hello"))

	f.Fuzz(func(t *testing.T, kind, status, op uint8, id uint32, addr uint64, count uint32, arg uint64, nargs uint8, data []byte) {
		m := &Msg{
			Kind:   Kind(kind%uint8(kindMax)) + 1,
			Status: Status(status % uint8(statusMax+1)),
			Op:     op,
			ID:     id,
			Addr:   addr,
			Count:  count,
		}
		if n := int(nargs) % (MaxArgs + 1); n > 0 {
			m.Args = make([]uint64, n)
			for i := range m.Args {
				m.Args[i] = arg + uint64(i)
			}
		}
		if len(data) > MaxData {
			data = data[:MaxData]
		}
		if len(data) > 0 {
			m.Data = data
		}
		enc, err := m.Encode()
		if err != nil {
			t.Fatalf("encode valid message: %v", err)
		}
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("decode own encoding: %v", err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("round trip mismatch:\n sent %+v\n got  %+v", m, got)
		}
	})
}

// FuzzResponderDedup drives one Responder with a random sequence of
// requests: each op is four bytes — an ID offset (two bytes), a floor
// offset, and flags (bit 0: re-send an earlier ID instead, bit 1: stall the
// handler, bit 2: release the oldest stalled handler first). IDs start just
// below the uint32 wrap. Invariants: no ID executes twice, every reply sent
// for an ID is byte-identical to the first, and the cache holds only IDs in
// [floor, floor+DefaultResponderWindow).
func FuzzResponderDedup(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 2, 0, 1, 0, 0, 0, 0, 1})
	f.Add([]byte{0, 0, 0, 2, 1, 0, 0, 0, 0, 0, 0, 1, 5, 0, 1, 0, 2, 0, 0, 4, 0, 0, 0, 1})
	f.Add([]byte{0, 0, 0, 0, 0xff, 0x1f, 0, 0, 0x00, 0x20, 0, 0, 0, 0, 0, 1, 0, 0, 0x80, 0})
	f.Add([]byte{3, 0, 0, 2, 3, 0, 0, 1, 9, 0, 1, 0, 3, 0, 0, 3, 9, 0, 0, 5})

	f.Fuzz(func(t *testing.T, ops []byte) {
		const base = 0xFFFFFF00
		var mu sync.Mutex
		var sent [][]byte
		execs := map[uint32]int{}
		var tag uint64
		stall := map[uint32]chan struct{}{}
		started := map[uint32]chan struct{}{}
		handler := func(m, resp *Msg) {
			mu.Lock()
			execs[m.ID]++
			tag++
			resp.Data = binary.LittleEndian.AppendUint64(resp.Data[:0], tag)
			ch, st := stall[m.ID], started[m.ID]
			mu.Unlock()
			if ch != nil {
				close(st)
				<-ch
			}
		}
		r := NewResponder(collectPipe{&mu, &sent}, ResponderConfig{}, handler)
		checkCache := func() {
			r.mu.Lock()
			defer r.mu.Unlock()
			for id := range r.cache {
				if id-r.floor >= DefaultResponderWindow {
					t.Fatalf("cached ID %#x outside [floor %#x, floor+window)", id, r.floor)
				}
			}
		}

		var wg sync.WaitGroup
		var running []uint32 // stalled handlers, oldest first
		runningDone := map[uint32]chan struct{}{}
		var sentIDs []uint32
		for len(ops) >= 4 {
			op := ops[:4]
			ops = ops[4:]
			if op[3]&4 != 0 && len(running) > 0 {
				id := running[0]
				running = running[1:]
				mu.Lock()
				close(stall[id])
				mu.Unlock()
				<-runningDone[id]
			}
			id := base + uint32(binary.LittleEndian.Uint16(op))%(2*DefaultResponderWindow)
			if op[3]&1 != 0 && len(sentIDs) > 0 {
				id = sentIDs[int(op[0])%len(sentIDs)]
			}
			floor := base + 32*uint32(op[2])
			sentIDs = append(sentIDs, id)
			b, err := (&Msg{Kind: KindRMWREQ, ID: id, Addr: 8, Floor: floor}).Encode()
			if err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			_, isRunning := stall[id]
			stallNow := op[3]&2 != 0 && !isRunning && execs[id] == 0
			if stallNow {
				stall[id] = make(chan struct{})
				started[id] = make(chan struct{})
			}
			st := started[id]
			mu.Unlock()
			if !stallNow && !isRunning {
				r.Deliver(b)
				checkCache()
				continue
			}
			// The delivery may park in the handler or wait on a running
			// first execution: run it aside.
			done := make(chan struct{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer close(done)
				r.Deliver(b)
			}()
			if !stallNow {
				continue
			}
			select {
			case <-st:
				running = append(running, id)
				runningDone[id] = done
			case <-done: // dropped below the floor or past the window
				mu.Lock()
				delete(stall, id)
				mu.Unlock()
			}
			checkCache()
		}
		mu.Lock()
		for _, id := range running {
			close(stall[id])
		}
		mu.Unlock()
		wg.Wait()
		checkCache()
		for id, n := range execs {
			if n > 1 {
				t.Fatalf("ID %#x executed %d times", id, n)
			}
		}
		first := map[uint32][]byte{}
		for _, b := range sent {
			m, err := Decode(b)
			if err != nil {
				t.Fatal(err)
			}
			if f, ok := first[m.ID]; !ok {
				first[m.ID] = b
			} else if !bytes.Equal(f, b) {
				t.Fatalf("ID %#x: replay differs from the first reply", m.ID)
			}
		}
	})
}
