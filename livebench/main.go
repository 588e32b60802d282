//edmlint:allow walltime the benchmark measures wall-clock latency, throughput and set-up time of the live service, like the commands under cmd/

// Command livebench is the end-to-end benchmark of the live remote-memory
// stack (wire -> rmem -> cluster). It builds the servers and clients of one
// workload in this process, drives them closed-loop from one goroutine at a
// fixed number of ops in flight, checks every read and the RMW counters,
// and prints its metrics, the last line as one JSON object.
//
//	livebench --workload udp-small --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace 1
// runs the workload untraced and then traced, half the time each, and
// prints the per-layer metrics: self times from spans recorded around the
// calls into each layer, counts from the layers' Stats and Metrics, and
// the tracing overhead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/wire"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("livebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed of the op inputs, the pattern and the cluster map")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := specByName(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "livebench: need --workload (%s), --seconds >= 1, --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := config{seed: *seed, measure: time.Duration(*seconds) * time.Second, traced: *trace == 1}
	res, err := runBench(sp, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "livebench: %v\n", err)
		return 1
	}
	res.print(stdout)
	if !res.correct {
		fmt.Fprintf(stderr, "livebench: output check failed: %s\n", strings.Join(res.problems, "; "))
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return names
}

// config is one invocation's settings.
type config struct {
	seed    uint64
	measure time.Duration
	traced  bool
	// wrongPattern makes reads check against another seed's pattern: the
	// self-test's proof that the output check can fail.
	wrongPattern bool
}

const (
	// parts and setupReps: the untraced measurement is cut into parts, and
	// after each the stack is built setupReps times to time set-up, so the
	// builds sample the whole run.
	parts     = 20
	setupReps = 50
	// quietParts is the quantile of parts a latency percentile reports,
	// from the fast end: see endToEnd.
	quietParts = 0.1
	// traceCapacity is the span buffer: 32 MiB of preallocated memory.
	traceCapacity = 1 << 20
	// spansPerOpBudget sizes the sampling rate: no op here records more.
	spansPerOpBudget = 16
)

// warmOps is the warm-up length: past the server's duplicate-suppression
// window on every node, so its pools and dedup ring are at steady state.
func warmOps(sp spec) int { return 4 * wire.DefaultResponderWindow * sp.nodes }

// metric is one printed figure.
type metric struct {
	name, unit string
	value      float64
}

type result struct {
	sp        spec
	cfg       config
	correct   bool
	problems  []string
	attempted uint64
	failed    uint64
	samples   [numKinds]int
	lines     []string // report lines above the metrics
	metrics   []metric
}

func (r *result) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// phase is one measured run of a built stack.
type phase struct {
	d             *driver
	counts        layerCounts
	mem           runtime.MemStats // delta over the measurement
	attempted     uint64
	payloadBytes  uint64
	sends, dgrams uint64 // traced stack only
	dgramBytes    uint64
}

func runBench(sp spec, cfg config) (*result, error) {
	r := &result{sp: sp, cfg: cfg, correct: true}
	in := genInputs(sp, cfg.seed)
	pat := newPattern(cfg.seed)
	want := pat
	if cfg.wrongPattern {
		want = newPattern(cfg.seed + 1)
	}
	clk := clock{base: time.Now()}
	if !cfg.traced {
		st, err := buildStack(sp, cfg.seed, nil)
		if err != nil {
			return nil, err
		}
		var setup []float64
		ph, err := measure(r, clk, st, in, pat, want, 0, cfg.measure, &setup)
		if err != nil {
			return nil, err
		}
		r.endToEnd(ph, median(setup))
		return r, nil
	}
	half := cfg.measure / 2
	st, err := buildStack(sp, cfg.seed, nil)
	if err != nil {
		return nil, err
	}
	plain, err := measure(r, clk, st, in, pat, want, 0, half, nil)
	if err != nil {
		return nil, err
	}
	// Hand the untraced stack's memory back before building the next one.
	debug.FreeOSMemory()
	tr := newTracer(clk, in, sp, traceCapacity)
	if st, err = buildStack(sp, cfg.seed, tr); err != nil {
		return nil, err
	}
	expected := plain.d.tl.opsPerS() * half.Seconds()
	every := int64(expected*spansPerOpBudget/float64(traceCapacity*9/10)) + 1
	traced, err := measure(r, clk, st, in, pat, want, every, half, nil)
	if err != nil {
		return nil, err
	}
	n := min(int(tr.n.Load()), len(tr.spans))
	r.perLayer(plain, traced, analyzeSpans(tr.spans[:n], sp.udp), every)
	return r, nil
}

// timedSetup builds and closes the stack setupReps times and appends the
// build times to times.
func timedSetup(sp spec, seed uint64, times *[]float64) error {
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		st, err := buildStack(sp, seed, nil)
		if err != nil {
			return err
		}
		*times = append(*times, time.Since(t).Seconds())
		if err := st.close(); err != nil {
			return err
		}
	}
	return nil
}

// measure prefills, warms up, measures for dur, drains, checks the RMW
// counters and closes the stack. Once warm, it traces one op in every
// (none if 0). If setup is set, it measures in parts, and after each it
// pauses the driver to time set-up, collects the garbage of those builds,
// and resumes; the pauses are not measured.
func measure(r *result, clk clock, st *stack, in *inputs, pat, want *pattern,
	every int64, dur time.Duration, setup *[]float64) (ph *phase, err error) {
	defer func() {
		if cerr := st.close(); err == nil && cerr != nil {
			err = fmt.Errorf("close: %w", cerr)
		}
	}()
	if err := st.prefill(pat); err != nil {
		return nil, err
	}
	d := newDriver(clk, st.mc, in, pat, want, st.tr)
	d.start()
	d.warm(warmOps(st.sp))
	d.every = every
	ph = &phase{d: d}
	c0, a0 := st.counts(), d.attempted
	s0, g0, b0 := st.sendCounts()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if setup == nil {
		d.measure(dur)
	} else {
		for i := 0; i < parts; i++ {
			d.measure(dur / parts)
			d.drain()
			if err := timedSetup(st.sp, st.seed, setup); err != nil {
				return nil, err
			}
			runtime.GC()
			d.start()
		}
	}
	runtime.ReadMemStats(&m1)
	s1, g1, b1 := st.sendCounts()
	ph.counts, ph.attempted = st.counts().sub(c0), d.attempted-a0
	ph.sends, ph.dgrams, ph.dgramBytes = s1-s0, g1-g0, b1-b0
	ph.mem = runtime.MemStats{TotalAlloc: m1.TotalAlloc - m0.TotalAlloc, Mallocs: m1.Mallocs - m0.Mallocs,
		NumGC: m1.NumGC - m0.NumGC, PauseTotalNs: m1.PauseTotalNs - m0.PauseTotalNs}
	ph.payloadBytes = d.tl.bytes
	for k := range d.tl.samples {
		r.samples[k] += int(d.tl.samples[k])
	}
	d.drain()
	r.attempted += d.attempted
	r.failed += d.failed
	if d.failed > 0 {
		r.fail("%d of %d ops failed: %d errors, %d ErrTooManyOut, %d reads off the pattern",
			d.failed, d.attempted, d.opErrs, d.tooManyOut, d.badData)
	}
	sum, err := st.counterSum()
	if err != nil {
		return nil, err
	}
	if sum != d.rmwAcked {
		r.fail("RMW counters sum to %d, %d RMWs were acknowledged", sum, d.rmwAcked)
		r.failed += max(sum, d.rmwAcked) - min(sum, d.rmwAcked)
	}
	return ph, nil
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the order statistics of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// endToEnd fills the metrics of an untraced run. Rates and CPU cost cover
// the whole measured time, so every cost of the program (garbage
// collection, allocation, stalls, retransmissions) counts as often as it
// happens. A latency percentile is taken within each part of the run, and
// the run reports the 10th percentile of the parts, from the fast end.
// Outside interference on shared CPUs slows latency far more than it
// slows the rate: phases of seconds to a minute nearly double the median
// latency of udp-cluster-mixed while its rate drops far less, and
// whole-run or median-part latencies then spread by 30-40% over ten runs.
func (r *result) endToEnd(ph *phase, setup float64) {
	t := &ph.d.tl
	for k := 0; k < numKinds; k++ {
		r.add(kindNames[k]+"_p50_us", "us", quantile(t.p50[k], quietParts)/1e3)
		r.add(kindNames[k]+"_p99_us", "us", quantile(t.p99[k], quietParts)/1e3)
	}
	r.add("ops_per_s", "1/s", t.opsPerS())
	r.add("goodput_mb_s", "MB/s", ratio(float64(t.bytes), t.secs)/1e6)
	r.add("cpu_us_per_op", "us", t.cpuUsPerOp())
	r.add("peak_rss_mb", "MB", peakRSSMB())
	r.add("setup_s", "s", setup)
	r.lines = append(r.lines, fmt.Sprintf("fail_ratio %.6g (%d of %d attempted ops; not a JSON metric: it is 0 when correct)",
		ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted))
}

// perLayer fills the metrics of a traced run from its untraced half
// (plain: layer counters, runtime, driver lag) and traced half (spans and
// datagram counts).
func (r *result) perLayer(plain, traced *phase, ss spanStats, every int64) {
	sp := r.sp
	udp, cl := sp.udp, sp.nodes > 1
	pick := func(on bool, v float64) float64 {
		if on {
			return v
		}
		return 0
	}
	ops := float64(plain.attempted)
	c := plain.counts
	r.add("wire.udp.send_ns", "ns", pick(udp, ss.meanSelf(spSend, spReply)))
	r.add("wire.udp.dgrams_per_send", "count", pick(udp, ratio(float64(traced.dgrams), float64(traced.sends))))
	r.add("wire.udp.dgrams_per_op", "count", pick(udp, ratio(float64(traced.dgrams), float64(traced.attempted))))
	r.add("wire.udp.client_deliver_ns", "ns", pick(udp, ratio(ss.durNs[spCliDeliver], float64(ss.count[spCliDeliver]))))
	r.add("wire.responder.self_ns", "ns", ss.meanSelf(spSrvDeliver))
	r.add("wire.conn.retransmits_per_kop", "count", ratio(1e3*float64(c.retransmits), ops))
	r.add("wire.conn.timeouts", "count", float64(c.timeouts))
	r.add("wire.responder.replays", "count", float64(c.replays))
	r.add("wire.bytes_per_payload_byte", "ratio", ratio(float64(traced.dgramBytes), float64(traced.payloadBytes)))
	r.add("rmem.client.issue_ns", "ns", pick(!cl, ss.meanSelf(spIssue)))
	r.add("rmem.client.deliver_ns", "ns", ss.meanSelf(spCliDeliver))
	r.add("rmem.client.window_full", "count", float64(c.windowFull))
	for k := 0; k < numKinds; k++ {
		r.add("rmem.server.handle_ns."+kindNames[k], "ns", ratio(ss.handleNs[k], float64(ss.handleCount[k])))
	}
	r.add("memctl.modeled_dram_ns_per_op", "ns", ratio(float64(c.modeledDRAMps)/1e3, float64(c.serverOps)))
	r.add("cluster.issue_ns", "ns", pick(cl, ss.meanSelf(spIssue)))
	r.add("cluster.subops_per_op", "count", pick(cl, ratio(float64(c.nodeOps), ops)))
	r.add("cluster.split_ratio", "ratio", pick(cl, ratio(float64(c.splitOps), ops)))
	r.add("cluster.failovers", "count", float64(c.failovers))
	r.add("runtime.alloc_b_per_op", "B", ratio(float64(plain.mem.TotalAlloc), ops))
	r.add("runtime.allocs_per_op", "count", ratio(float64(plain.mem.Mallocs), ops))
	r.add("runtime.gc_cycles", "count", float64(plain.mem.NumGC))
	r.add("runtime.gc_pause_us", "us", float64(plain.mem.PauseTotalNs)/1e3)
	r.add("driver.reissue_lag_us.p50", "us", plain.d.tl.lag.quantile(0.50)/1e3)
	r.add("driver.reissue_lag_us.p99", "us", plain.d.tl.lag.quantile(0.99)/1e3)
	r.add("wait_us", "us", ratio(ss.waitNs, float64(ss.ops))/1e3)
	opsPlain, opsTraced := plain.d.tl.opsPerS(), traced.d.tl.opsPerS()
	cpuPlain, cpuTraced := plain.d.tl.cpuUsPerOp(), traced.d.tl.cpuUsPerOp()
	r.add("trace.overhead.ops_per_s", "1/s", opsTraced-opsPlain)
	r.add("trace.overhead.cpu_us_per_op", "us", cpuTraced-cpuPlain)
	r.lines = append(r.lines,
		fmt.Sprintf("untraced half: %.0f ops/s, %.3f CPU-us/op; traced half: %.0f ops/s, %.3f CPU-us/op",
			opsPlain, cpuPlain, opsTraced, cpuTraced),
		fmt.Sprintf("traced ops: %d (1 in %d), mean latency %.3f us, incomplete %d, nesting violations %d",
			ss.ops, every, ratio(ss.latNs, float64(ss.ops))/1e3, ss.incomplete, ss.violations))
	// Spans that nest are what keeps an op's layer self times within its
	// latency (see alongOp), so a nesting violation fails the run.
	if ss.violations > 0 {
		r.fail("%d spans do not nest in the call that made them", ss.violations)
	}
	if ss.ops == 0 {
		r.fail("no op was traced")
	}
}

func (r *result) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v})
}

// print writes the report: environment, metrics by name with units, and
// the JSON line last.
func (r *result) print(w io.Writer) {
	mode := "end-to-end, untraced"
	if r.cfg.traced {
		mode = "per-layer, traced"
	}
	fmt.Fprintf(w, "livebench %s (%s): seed %d, depth %d, %d node(s), transport %s\n",
		r.sp.name, mode, r.cfg.seed, r.sp.depth, r.sp.nodes, r.sp.transport)
	fmt.Fprintf(w, "environment: nproc %d, GOMAXPROCS %d, %s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(w, "samples: read %d, write %d, rmw %d; attempted %d, failed %d\n",
		r.samples[opRead], r.samples[opWrite], r.samples[opRMW], r.attempted, r.failed)
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-34s %14s %s\n", m.name, strconv.FormatFloat(m.value, 'g', 8, 64), m.unit)
		ms[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	if err != nil {
		panic(err) // a map of finite floats always marshals
	}
	fmt.Fprintln(w, string(line))
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}
