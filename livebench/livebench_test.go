//edmlint:allow walltime the benchmark measures wall-clock latency, throughput and set-up time of the live service, like the commands under cmd/

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// contract is the part of ../BENCHMARK.json the program must honour.
type contract struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

type output struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

// runCLI runs the command as the benchmark harness does and parses the
// JSON on its last line.
func runCLI(t *testing.T, args ...string) (output, string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("%v: last line is not the JSON result: %v\n%s%s", args, err, stdout.String(), stderr.String())
	}
	return out, stdout.String(), code
}

// TestShortRunsPrintEveryMetric runs every workload briefly, untraced and
// traced, and checks each prints every metric BENCHMARK.json names, by
// name and with its unit, and passes the output check.
func TestShortRunsPrintEveryMetric(t *testing.T) {
	c := readContract(t)
	for _, w := range c.Workloads {
		if _, err := specByName(w.Name); err != nil {
			t.Errorf("BENCHMARK.json workload: %v", err)
		}
	}
	for _, w := range workloadNames() {
		for trace, want := range [][]struct{ Name, Unit string }{c.EndToEnd, c.PerLayer} {
			out, text, code := runCLI(t, "--workload", w, "--seed", "7", "--seconds", "1", "--trace", []string{"0", "1"}[trace])
			if code != 0 || !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Fatalf("%s trace %d: exit %d, %+v\n%s", w, trace, code, out, text)
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics, BENCHMARK.json names %d", w, trace, len(out.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %d: metric %s = %+v, want unit %s", w, trace, m.Name, got, m.Unit)
				}
				if !strings.Contains(text, m.Name+" ") {
					t.Errorf("%s trace %d: report has no %s line", w, trace, m.Name)
				}
			}
		}
	}
}

// TestWrongPatternFails checks the output check can fail: reads compared
// against another seed's pattern count as failures and the command's
// result is not correct.
func TestWrongPatternFails(t *testing.T) {
	sp, err := specByName("inproc-cluster-small")
	if err != nil {
		t.Fatal(err)
	}
	r, err := runBench(sp, config{seed: 3, measure: 500 * time.Millisecond, wrongPattern: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.correct || r.failed == 0 {
		t.Fatalf("wrong pattern passed: correct %v, failed %d of %d", r.correct, r.failed, r.attempted)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "udp-small", "--seconds", "0"},
		{"--workload", "udp-small", "--trace", "2"},
		{"--bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

// TestInputsFollowSeed checks the same seed yields identical inputs and
// another seed different ones.
func TestInputsFollowSeed(t *testing.T) {
	for _, sp := range specs {
		a, b, c := genInputs(sp, 5), genInputs(sp, 5), genInputs(sp, 6)
		same := func(x, y *inputs) bool {
			return slices.Equal(x.kind, y.kind) && slices.Equal(x.size, y.size) && slices.Equal(x.addr, y.addr)
		}
		if !same(a, b) {
			t.Errorf("%s: seed 5 twice gave different inputs", sp.name)
		}
		if same(a, c) {
			t.Errorf("%s: seeds 5 and 6 gave identical inputs", sp.name)
		}
		for i := range a.addr {
			addr, n := uint64(a.addr[i]), uint64(a.size[i])
			s := a.slotOf(addr)
			if s != i/a.perSlot || a.slotOf(addr+n-1) != s {
				t.Fatalf("%s: op %d [%d,+%d) leaves its slot's lane", sp.name, i, addr, n)
			}
		}
	}
	if bytes.Equal(newPattern(5).bytes, newPattern(6).bytes) || !bytes.Equal(newPattern(5).bytes, newPattern(5).bytes) {
		t.Error("pattern does not follow the seed")
	}
}

// TestHeaderPeek checks the traced wrappers read the ID and address where
// the codec puts them.
func TestHeaderPeek(t *testing.T) {
	b, err := (&wire.Msg{Kind: wire.KindWREQ, ID: 0xdeadbeef, Addr: 0x1234567, Data: []byte("x")}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	sp, _ := specByName("udp-cluster-mixed")
	tr := newTracer(clock{time.Now()}, genInputs(sp, 1), sp, 1)
	slot := tr.in.slotOf(0x1234567)
	tr.cur[slot].Store(42)
	seq, id, ok := tr.seqOfRequest(b)
	if !ok || seq != 42 || id != 0xdeadbeef {
		t.Fatalf("peek: seq %d id %#x ok %v", seq, id, ok)
	}
}

// TestSpansMustNest checks the analysis flags a span outside the call that
// made it, and finds the wait on a well-nested UDP op.
func TestSpansMustNest(t *testing.T) {
	ok := []span{
		{kind: spIssue, start: 0, end: 30},
		{kind: spSend, start: 10, end: 25, id: 9},
		{kind: spSrvDeliver, start: 20, end: 60, id: 9},
		{kind: spHandle, start: 30, end: 40, id: 9},
		{kind: spReply, start: 45, end: 58, id: 9},
		{kind: spCliDeliver, start: 70, end: 90, id: 9},
		{kind: spCallback, start: 80, end: 85},
	}
	st := analyzeSpans(slices.Clone(ok), true)
	if st.ops != 1 || st.violations != 0 {
		t.Fatalf("nested op: %+v", st)
	}
	// Along the op: the issue tree until the server starts (0..20: 20),
	// the server tree until the client deliver starts (20..70: 40), the
	// client tree until the callback (70..80: 10). Latency 80, wait 10.
	if st.waitNs != 10 {
		t.Errorf("wait %v, want 10", st.waitNs)
	}
	// A retransmission, sent by the retry timer outside any traced call,
	// is not a nesting error.
	retx := append(slices.Clone(ok), span{kind: spSend, start: 95, end: 96, id: 9})
	if st := analyzeSpans(retx, true); st.violations != 0 {
		t.Errorf("retransmission: %+v", st)
	}
	bad := slices.Clone(ok)
	bad[3].end = 61 // Handle outlives the Responder.Deliver that called it
	if st := analyzeSpans(bad, true); st.violations == 0 {
		t.Errorf("handle outside its deliver: %+v", st)
	}
	// Handle and the reply send overlap inside the deliver call, so their
	// durations exceed it and its self time would be negative.
	overlapping := slices.Clone(ok)
	overlapping[3].start, overlapping[3].end = 22, 50
	overlapping[4].start = 30
	if st := analyzeSpans(overlapping, true); st.violations == 0 {
		t.Errorf("overlapping children: %+v", st)
	}
}

// TestHistQuantile checks the latency histogram against exact order
// statistics: exact below 1024 ns, within 0.1% above.
func TestHistQuantile(t *testing.T) {
	var h hist
	var xs []float64
	for i := int64(0); i < 100000; i++ {
		v := (i * 7919) % 3000000 // up to 3 ms, in no particular order
		h.add(v)
		xs = append(xs, float64(v))
	}
	slices.Sort(xs)
	for _, q := range []float64{0, 0.001, 0.5, 0.99, 1} {
		want := xs[int(q*float64(len(xs)-1))]
		if got := h.quantile(q); got < want*0.999 || got > want*1.001 {
			t.Errorf("q %v: %v, want %v", q, got, want)
		}
	}
	var small hist
	for _, v := range []int64{5, 900, 1000} {
		small.add(v)
	}
	if got := small.quantile(0.5); got != 900 {
		t.Errorf("small median %v, want 900", got)
	}
}
