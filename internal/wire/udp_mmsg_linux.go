//go:build linux && (amd64 || arm64)

// Batched UDP I/O via sendmmsg/recvmmsg. The raw syscalls are issued inside
// the RawConn read/write callbacks so the netpoller keeps scheduling the
// socket (returning false on EAGAIN parks the goroutine until readiness),
// and the scratch msghdr/iovec arrays are heap-allocated: the kernel reads
// them by pointer, and Go stacks — unlike the heap — can move. Each sender
// and receiver binds its callback once, passing arguments and results
// through its own fields, so a syscall allocates no closure.
package wire

import (
	"net"
	"net/netip"
	"strconv"
	"sync"
	"syscall"
	"unsafe"
)

// udpBatchSize is how many datagrams one sendmmsg/recvmmsg call moves.
const udpBatchSize = 16

// sysSendmmsg is the sendmmsg trap number (the stdlib syscall table on
// linux/amd64 predates sendmmsg; defined per-arch in udp_mmsg_*.go).
// recvmmsg is present as syscall.SYS_RECVMMSG on both gated arches.

// mmsghdr mirrors the kernel's struct mmsghdr: a msghdr plus the
// kernel-filled transfer length. syscall.Msghdr is 56 bytes on linux/amd64
// and linux/arm64; the explicit pad reproduces the C struct's 8-byte
// alignment, for 64 bytes per element.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	pad uint32
}

// batchSender coalesces sends on a connected UDP socket.
type batchSender struct {
	c  *net.UDPConn
	rc syscall.RawConn // nil: sequential Write fallback

	mu       sync.Mutex
	sendHdrs []mmsghdr       // guarded by mu: syscall scratch, reused per batch
	sendIovs []syscall.Iovec // guarded by mu
	writeFn  func(fd uintptr) bool
	n        int // guarded by mu: datagrams in the chunk writeFn sends
	sent     int // guarded by mu: writeFn's result
}

func newBatchSender(c *net.UDPConn) *batchSender {
	s := &batchSender{c: c,
		sendHdrs: make([]mmsghdr, udpBatchSize),
		sendIovs: make([]syscall.Iovec, udpBatchSize)}
	s.writeFn = s.sendmmsgLocked
	if rc, err := c.SyscallConn(); err == nil {
		s.rc = rc
	}
	return s
}

// sendmmsgLocked is the RawConn write callback, run under mu inside send:
// one sendmmsg of the first n prepared headers, its count left in sent.
func (s *batchSender) sendmmsgLocked(fd uintptr) bool {
	r1, _, errno := syscall.Syscall6(sysSendmmsg, fd,
		uintptr(unsafe.Pointer(&s.sendHdrs[0])), uintptr(s.n), 0, 0, 0)
	switch {
	case errno == syscall.EAGAIN:
		return false
	case errno != 0:
		s.sent = s.n // dropped chunk; retransmission recovers
	default:
		s.sent = int(r1)
	}
	return true
}

// send transmits ps in order, up to udpBatchSize datagrams per sendmmsg. A
// non-EAGAIN syscall failure is treated as loss of the whole chunk — the
// reliable layer's retransmission covers it, same as any dropped datagram.
func (s *batchSender) send(ps [][]byte) error {
	if s.rc == nil {
		for _, p := range ps {
			if _, err := s.c.Write(p); err != nil {
				return err
			}
		}
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(ps) > 0 {
		n := len(ps)
		if n > udpBatchSize {
			n = udpBatchSize
		}
		for i := 0; i < n; i++ {
			s.sendHdrs[i] = mmsghdr{}
			s.sendIovs[i] = syscall.Iovec{}
			if len(ps[i]) > 0 {
				s.sendIovs[i].Base = &ps[i][0]
				s.sendIovs[i].SetLen(len(ps[i]))
			}
			s.sendHdrs[i].hdr.Iov = &s.sendIovs[i]
			s.sendHdrs[i].hdr.Iovlen = 1
		}
		s.n, s.sent = n, 0
		if err := s.rc.Write(s.writeFn); err != nil {
			return err
		}
		sent := s.sent
		if sent <= 0 {
			sent = n
		}
		ps = ps[sent:]
	}
	return nil
}

// batchReceiver drains a UDP socket up to udpBatchSize datagrams per
// recvmmsg into buffers it owns and reuses: a received packet is valid only
// until the next recv call. With capture set it also records each packet's
// source address (the server's demux key).
type batchReceiver struct {
	c       *net.UDPConn
	rc      syscall.RawConn // nil: single-datagram fallback
	capture bool

	bufs   *[udpBatchSize][]byte // from recvBufPool until release
	hdrs   []mmsghdr
	iovs   []syscall.Iovec
	names  []syscall.RawSockaddrAny
	addrs  []netip.AddrPort
	readFn func(fd uintptr) bool
	got    int   // readFn's datagram count
	sysErr error // readFn's non-EAGAIN failure
}

func newBatchReceiver(c *net.UDPConn, capture bool) *batchReceiver {
	r := &batchReceiver{c: c, capture: capture,
		bufs:  recvBufPool.Get().(*[udpBatchSize][]byte),
		hdrs:  make([]mmsghdr, udpBatchSize),
		iovs:  make([]syscall.Iovec, udpBatchSize),
		names: make([]syscall.RawSockaddrAny, udpBatchSize),
		addrs: make([]netip.AddrPort, udpBatchSize)}
	r.readFn = r.recvmmsg
	if rc, err := c.SyscallConn(); err == nil {
		r.rc = rc
	}
	return r
}

// recvmmsg is the RawConn read callback: one recvmmsg into the prepared
// headers, its count left in got and any failure in sysErr.
func (r *batchReceiver) recvmmsg(fd uintptr) bool {
	r1, _, errno := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
		uintptr(unsafe.Pointer(&r.hdrs[0])), udpBatchSize, 0, 0, 0)
	switch {
	case errno == syscall.EAGAIN:
		return false
	case errno != 0:
		r.sysErr = errno
	default:
		r.got = int(r1)
	}
	return true
}

// recvBatch blocks for at least one datagram and returns how many arrived.
//
//edmlint:hotpath one recvBatch per socket wake-up on both ends
func (r *batchReceiver) recvBatch() (int, error) {
	if r.rc == nil {
		return r.recvOne()
	}
	for i := 0; i < udpBatchSize; i++ {
		r.hdrs[i] = mmsghdr{}
		r.iovs[i] = syscall.Iovec{Base: &r.bufs[i][0]}
		r.iovs[i].SetLen(len(r.bufs[i]))
		r.hdrs[i].hdr.Iov = &r.iovs[i]
		r.hdrs[i].hdr.Iovlen = 1
		if r.capture {
			r.hdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&r.names[i]))
			r.hdrs[i].hdr.Namelen = uint32(unsafe.Sizeof(r.names[i]))
		}
	}
	r.got, r.sysErr = 0, nil
	if err := r.rc.Read(r.readFn); err != nil {
		return 0, err
	}
	if r.sysErr != nil {
		return 0, r.sysErr
	}
	if r.capture {
		for i := 0; i < r.got; i++ {
			r.addrs[i] = rawToAddrPort(&r.names[i])
		}
	}
	return r.got, nil
}

// recvOne is the fallback when the socket exposes no RawConn.
func (r *batchReceiver) recvOne() (int, error) {
	if r.capture {
		n, addr, err := r.c.ReadFromUDPAddrPort(r.bufs[0])
		if err != nil {
			return 0, err
		}
		r.hdrs[0].n = uint32(n)
		r.addrs[0] = addr
		return 1, nil
	}
	n, err := r.c.Read(r.bufs[0])
	if err != nil {
		return 0, err
	}
	r.hdrs[0].n = uint32(n)
	return 1, nil
}

// pkt returns packet i of the last recv; valid until the next recv.
func (r *batchReceiver) pkt(i int) []byte { return r.bufs[i][:r.hdrs[i].n] }

// src returns packet i's source address.
func (r *batchReceiver) src(i int) netip.AddrPort { return r.addrs[i] }

// rawToAddrPort decodes a kernel sockaddr. Ports arrive big-endian; the
// gated platforms are little-endian, so the swap is unconditional.
func rawToAddrPort(sa *syscall.RawSockaddrAny) netip.AddrPort {
	switch sa.Addr.Family {
	case syscall.AF_INET:
		a := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		return netip.AddrPortFrom(netip.AddrFrom4(a.Addr), ntohs(a.Port))
	case syscall.AF_INET6:
		a := (*syscall.RawSockaddrInet6)(unsafe.Pointer(sa))
		ip := netip.AddrFrom16(a.Addr)
		if a.Scope_id != 0 {
			ip = ip.WithZone(strconv.FormatUint(uint64(a.Scope_id), 10))
		}
		return netip.AddrPortFrom(ip, ntohs(a.Port))
	}
	return netip.AddrPort{}
}

func ntohs(v uint16) uint16 { return v<<8 | v>>8 }
