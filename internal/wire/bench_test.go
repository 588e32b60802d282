// Benchmarks for the live wire protocol's hot path: codec encode/decode and
// the loopback request/response round trip. Run with:
//
//	go test -bench=. -benchmem ./internal/wire
//
// Metrics are reported via b.ReportMetric (msgs/s, MB/s) so the output
// doubles as the recorded perf baseline for the live service.
package wire

import (
	"fmt"
	"testing"
)

func benchMsg(payload int) *Msg {
	return &Msg{Kind: KindWREQ, ID: 1, Addr: 4096, Count: uint32(payload),
		Data: make([]byte, payload)}
}

func BenchmarkEncode(b *testing.B) {
	for _, payload := range []int{0, 64, 1024, 16384} {
		b.Run(fmt.Sprintf("payload=%d", payload), func(b *testing.B) {
			m := benchMsg(payload)
			b.SetBytes(int64(m.EncodedSize()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Encode(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
		})
	}
}

func BenchmarkDecode(b *testing.B) {
	for _, payload := range []int{0, 64, 1024, 16384} {
		b.Run(fmt.Sprintf("payload=%d", payload), func(b *testing.B) {
			enc, err := benchMsg(payload).Encode()
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(enc)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Decode(enc); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
		})
	}
}

// BenchmarkEncodeAppend measures the pooled encode form: appending into a
// recycled buffer, which the steady state does without allocating.
func BenchmarkEncodeAppend(b *testing.B) {
	for _, payload := range []int{0, 64, 1024, 16384} {
		b.Run(fmt.Sprintf("payload=%d", payload), func(b *testing.B) {
			m := benchMsg(payload)
			buf := make([]byte, 0, m.EncodedSize())
			b.SetBytes(int64(m.EncodedSize()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := m.AppendEncode(buf[:0])
				if err != nil {
					b.Fatal(err)
				}
				buf = out
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
		})
	}
}

// BenchmarkDecodeInto measures the pooled decode form: parsing into a
// recycled Msg, reusing its Args/Data capacity.
func BenchmarkDecodeInto(b *testing.B) {
	for _, payload := range []int{0, 64, 1024, 16384} {
		b.Run(fmt.Sprintf("payload=%d", payload), func(b *testing.B) {
			enc, err := benchMsg(payload).Encode()
			if err != nil {
				b.Fatal(err)
			}
			var m Msg
			b.SetBytes(int64(len(enc)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := DecodeInto(&m, enc); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
		})
	}
}

// BenchmarkLoopbackRoundTrip measures one full reliable request/response
// over the in-process transport (codec both ways, reliability bookkeeping,
// reply cache). The request message and completion callback
// are reused across iterations, as a pipelining client would, so the
// reported allocs/op reflect the protocol stack alone.
func BenchmarkLoopbackRoundTrip(b *testing.B) {
	for _, payload := range []int{64, 4096} {
		b.Run(fmt.Sprintf("read=%d", payload), func(b *testing.B) {
			lb := NewLoopback(LoopbackConfig{})
			conn := NewConn(lb.ClientPipe(), ConnConfig{})
			resp := NewResponder(lb.ServerPipe(), ResponderConfig{},
				func(m, resp *Msg) { resp.Data = growTestBytes(resp.Data, int(m.Count)) })
			lb.BindServer(resp.Deliver)
			lb.BindClient(conn.Deliver)
			req := &Msg{Kind: KindRREQ, Count: uint32(payload)}
			done := false
			cb := func(r *Msg, err error) {
				if err != nil {
					b.Fatal(err)
				}
				done = true
			}
			b.SetBytes(int64(payload))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				done = false
				if _, err := conn.Call(req, cb); err != nil {
					b.Fatal(err)
				}
				if !done {
					b.Fatal("loopback call did not complete synchronously")
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "roundtrips/s")
		})
	}
}

// growTestBytes is a benchmark helper: an n-byte slice reusing d's capacity.
func growTestBytes(d []byte, n int) []byte {
	if cap(d) < n {
		return make([]byte, n)
	}
	return d[:n]
}
