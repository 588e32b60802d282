package main

import (
	"errors"
	"math/bits"
	"syscall"
	"time"

	"repro/internal/memctl"
	"repro/internal/rmem"
)

// rmwArgs is every RMW's operand: fetch-add 1, so the counters' sum is
// the number of RMWs that took effect.
var rmwArgs = []uint64{1}

// slot is one closed-loop caller: at most one op in flight, reissued from
// the driver goroutine when it completes. Its callbacks are bound once.
type slot struct {
	idx     int32
	pos     int   // next op within the slot's share of the table
	op      int   // table index of the op in flight
	seq     int64 // issue number of the op in flight
	sampled bool  // traced
	t0      int64 // issue time
	tEnd    int64 // completion-callback entry time
	err     error
	bad     bool // read bytes did not match the pattern
	readCB  func([]byte, error)
	writeCB func(error)
	rmwCB   func(uint64, error)
}

// tally is what the driver measures over the parts of a run (the calls to
// measure). Counts, times and the re-issue lag sum over every part; the
// latencies of successful ops are summarized per part.
type tally struct {
	ops, bytes   uint64
	secs, cpuSec float64
	lag          hist // ns, completion callback to the slot's next issue
	samples      [numKinds]uint64
	lat          [numKinds]hist      // ns, the current part
	p50, p99     [numKinds][]float64 // ns, one per part with ops of the kind
}

func (t *tally) opsPerS() float64    { return ratio(float64(t.ops), t.secs) }
func (t *tally) cpuUsPerOp() float64 { return ratio(t.cpuSec*1e6, float64(t.ops)) }

// driver runs depth slots from one goroutine. It paces nothing: a slot
// issues its next op as soon as the driver sees its completion.
type driver struct {
	clock
	mc    memClient
	in    *inputs
	pat   *pattern // what writes store
	want  *pattern // what reads are checked against: pat, unless testing the check
	tr    *tracer  // nil when untraced
	every int64    // trace one op in every
	done  chan int32
	slots []slot

	seq      int64
	inflight int
	stop     bool
	timing   bool // inside measure: completions and lags count in tl

	// Totals since the driver started.
	attempted, failed  uint64
	opErrs, tooManyOut uint64
	badData            uint64
	rmwAcked           uint64

	tl tally
}

func newDriver(c clock, mc memClient, in *inputs, pat, want *pattern, tr *tracer) *driver {
	d := &driver{clock: c, mc: mc, in: in, pat: pat, want: want, tr: tr,
		done: make(chan int32, in.depth), slots: make([]slot, in.depth)}
	for i := range d.slots {
		s := &d.slots[i]
		s.idx = int32(i)
		s.tEnd = -1
		s.readCB = func(b []byte, err error) {
			s.tEnd = d.now()
			s.err = err
			if err == nil && (len(b) != int(d.in.size[s.op]) || !d.want.check(uint64(d.in.addr[s.op]), b)) {
				s.bad = true
			}
			d.complete(s)
		}
		s.writeCB = func(err error) {
			s.tEnd = d.now()
			s.err = err
			d.complete(s)
		}
		s.rmwCB = func(_ uint64, err error) {
			s.tEnd = d.now()
			s.err = err
			d.complete(s)
		}
	}
	return d
}

// complete ends a callback: it runs on the transport's goroutine (or inside
// the issuing call, on a synchronous transport) and hands the slot back.
func (d *driver) complete(s *slot) {
	if s.sampled {
		d.tr.record(span{start: s.tEnd, end: d.now(), seq: s.seq, kind: spCallback})
	}
	d.done <- s.idx
}

// issue starts the slot's next op. An op the client refuses inline fails
// and hands the slot straight back.
func (d *driver) issue(s *slot) {
	s.op = int(s.idx)*d.in.perSlot + s.pos
	s.pos++
	if s.pos == d.in.perSlot {
		s.pos = 0
	}
	s.seq = d.seq
	d.seq++
	s.err, s.bad = nil, false
	s.sampled = d.tr != nil && d.every > 0 && s.seq%d.every == 0 && !d.tr.full()
	if d.tr != nil {
		cur := int64(-1)
		if s.sampled {
			cur = s.seq
		}
		d.tr.cur[s.idx].Store(cur)
	}
	addr, n := uint64(d.in.addr[s.op]), int(d.in.size[s.op])
	kind := d.in.kind[s.op]
	d.attempted++
	d.inflight++
	t0 := d.now()
	if d.timing && s.tEnd >= 0 {
		d.tl.lag.add(t0 - s.tEnd)
	}
	s.t0 = t0
	var err error
	switch kind {
	case opRead:
		err = d.mc.Read(addr, n, s.readCB)
	case opWrite:
		err = d.mc.Write(addr, d.pat.at(addr, n), s.writeCB)
	default:
		err = d.mc.RMW(addr, memctl.OpFetchAdd, rmwArgs, s.rmwCB)
	}
	if s.sampled {
		d.tr.record(span{start: t0, end: d.now(), seq: s.seq, kind: spIssue, op: kind})
	}
	if err != nil {
		s.sampled = false
		s.err = err
		s.tEnd = d.now()
		d.done <- s.idx
	}
}

// step waits for one completion, accounts it, and reissues the slot
// unless the driver is stopping.
func (d *driver) step() {
	s := &d.slots[<-d.done]
	d.inflight--
	kind := d.in.kind[s.op]
	switch {
	case errors.Is(s.err, rmem.ErrTooManyOut):
		d.failed++
		d.tooManyOut++
	case s.err != nil:
		d.failed++
		d.opErrs++
	case s.bad:
		d.failed++
		d.badData++
	default:
		if kind == opRMW {
			d.rmwAcked++
		}
		if d.timing {
			d.tl.ops++
			d.tl.bytes += uint64(d.in.size[s.op])
			d.tl.lat[kind].add(s.tEnd - s.t0)
		}
	}
	if !d.stop {
		d.issue(s)
	}
}

// start fills every slot.
func (d *driver) start() {
	d.stop = false
	for i := range d.slots {
		d.slots[i].tEnd = -1 // no re-issue lag across a pause
		d.issue(&d.slots[i])
	}
}

// warm completes n ops, untimed.
func (d *driver) warm(n int) {
	for i := 0; i < n; i++ {
		d.step()
	}
}

// measure runs one part of dur and adds it to the tally.
func (d *driver) measure(dur time.Duration) {
	t := &d.tl
	for k := range t.lat {
		t.lat[k] = hist{}
	}
	t0, cpu0 := d.now(), cpuSeconds()
	end := t0 + int64(dur)
	d.timing = true
	for d.now() < end {
		d.step()
	}
	d.timing = false
	t.secs += float64(d.now()-t0) / 1e9
	t.cpuSec += cpuSeconds() - cpu0
	for k := range t.lat {
		if h := &t.lat[k]; h.n > 0 {
			t.samples[k] += h.n
			t.p50[k] = append(t.p50[k], h.quantile(0.50))
			t.p99[k] = append(t.p99[k], h.quantile(0.99))
		}
	}
}

// drain stops reissuing and waits for every op in flight; start resumes.
func (d *driver) drain() {
	d.stop = true
	for d.inflight > 0 {
		d.step()
	}
	if d.tr != nil {
		for i := range d.tr.cur {
			d.tr.cur[i].Store(-1)
		}
	}
}

// hist is a log-linear histogram of nanoseconds: exact below 1<<histSub,
// then 1<<histSub buckets per power of two (under 0.1% relative error),
// up to 1<<32 ns. Adding is allocation-free.
type hist struct {
	n      uint64
	counts [(33 - histSub) << histSub]uint64
}

const histSub = 10

func (h *hist) add(ns int64) {
	v := uint64(min(max(ns, 0), 1<<32-1))
	i := int(v)
	if v >= 1<<histSub {
		shift := bits.Len64(v) - histSub - 1
		i = (shift+1)<<histSub + int(v>>shift) - 1<<histSub
	}
	h.counts[i]++
	h.n++
}

// quantile returns the middle of the bucket holding the sample of rank
// q*(n-1) (0 if empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n-1))
	var seen uint64
	for i, c := range h.counts {
		if seen += c; seen > rank {
			if i < 1<<histSub {
				return float64(i)
			}
			shift := i>>histSub - 1
			lo := uint64(i&(1<<histSub-1)+1<<histSub) << shift
			return float64(lo) + float64(uint64(1)<<shift-1)/2
		}
	}
	return 0 // not reached: the counts sum to n
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
