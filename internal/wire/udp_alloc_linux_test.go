//go:build linux

//edmlint:allow walltime the round trip runs over a real UDP socket

package wire

import (
	"testing"
	"time"
)

// chanCompletion signals each completed call on a channel.
type chanCompletion struct{ ch chan error }

func (c *chanCompletion) Done(_ *Msg, err error) { c.ch <- err }

// TestUDPRoundTripAllocs: once warm, a request/reply round trip over real
// UDP — client send, server receive and routing, responder, reply, client
// receive and completion — allocates nothing, in any goroutine.
func TestUDPRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	server, err := ListenUDP("127.0.0.1:0", func(_ string, reply Pipe) func([]byte) {
		return NewResponder(reply, ResponderConfig{}, echoHandler).Deliver
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	uc, err := DialUDP(server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn := NewConn(uc, ConnConfig{RetryTimeout: time.Minute})
	go uc.Run(conn.Deliver)
	defer conn.Close()

	comp := &chanCompletion{ch: make(chan error, 1)}
	req := &Msg{Kind: KindRREQ, Count: 64}
	roundTrip := func() {
		if _, err := conn.CallC(req, comp); err != nil {
			t.Fatal(err)
		}
		if err := <-comp.ch; err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ { // warm the pools, the maps and the call records
		roundTrip()
	}
	if n := testing.AllocsPerRun(200, roundTrip); n != 0 {
		t.Fatalf("UDP round trip allocates %.2f objects, want 0", n)
	}
}
