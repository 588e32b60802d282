//go:build !(linux && (amd64 || arm64))

// Portable single-datagram stand-ins for the batched UDP I/O in
// udp_mmsg_linux.go: same batchSender/batchReceiver API, one Write or
// ReadFromUDP per datagram. Platforms without a verified mmsghdr layout
// take this path; correctness is identical, only the per-datagram syscall
// amortization is lost.
package wire

import (
	"net"
	"net/netip"
)

// udpBatchSize is how many datagrams one receive call can return.
const udpBatchSize = 1

type batchSender struct{ c *net.UDPConn }

func newBatchSender(c *net.UDPConn) *batchSender { return &batchSender{c: c} }

// send transmits ps in order, one syscall per datagram.
func (s *batchSender) send(ps [][]byte) error {
	for _, p := range ps {
		if _, err := s.c.Write(p); err != nil {
			return err
		}
	}
	return nil
}

// batchReceiver reads one datagram at a time into a buffer it owns and
// reuses: a received packet is valid only until the next recv call.
type batchReceiver struct {
	c       *net.UDPConn
	capture bool
	bufs    *[udpBatchSize][]byte // from recvBufPool until release
	n       int
	from    netip.AddrPort
}

func newBatchReceiver(c *net.UDPConn, capture bool) *batchReceiver {
	return &batchReceiver{c: c, capture: capture, bufs: recvBufPool.Get().(*[udpBatchSize][]byte)}
}

// recv blocks for one datagram and returns 1.
func (r *batchReceiver) recvBatch() (int, error) {
	if r.capture {
		n, addr, err := r.c.ReadFromUDPAddrPort(r.bufs[0])
		if err != nil {
			return 0, err
		}
		r.n = n
		r.from = addr
		return 1, nil
	}
	n, err := r.c.Read(r.bufs[0])
	if err != nil {
		return 0, err
	}
	r.n = n
	return 1, nil
}

// pkt returns packet i of the last recv; valid until the next recv.
func (r *batchReceiver) pkt(i int) []byte { return r.bufs[0][:r.n] }

// src returns packet i's source address.
func (r *batchReceiver) src(i int) netip.AddrPort { return r.from }
