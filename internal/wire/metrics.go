package wire

import (
	"repro/internal/telemetry"

	"strconv"
)

// kindLabel renders the `kind="..."` label suffix for per-kind series.
func kindLabel(base string, k Kind) string {
	return base + `{kind=` + strconv.Quote(k.String()) + `}`
}

// ConnMetrics holds the client reliability layer's counters, pre-registered
// so the hot path only touches atomics. One instance may back several Conns
// (the series then aggregate); passing nil to NewConn builds a private,
// unregistered instance so Stats() always works.
type ConnMetrics struct {
	// Datagrams transmitted, including retransmissions.
	Datagrams *telemetry.Counter
	// Requests issued (one per Call), by request kind.
	Requests [NumKinds]*telemetry.Counter
	// Responses matched to a pending call; RecvByKind splits by kind.
	Responses  *telemetry.Counter
	RecvByKind [NumKinds]*telemetry.Counter
	// Retransmissions, datagrams matching no pending call, undecodable
	// datagrams, and calls that exhausted their retry budget.
	Retransmits *telemetry.Counter
	Stray       *telemetry.Counter
	Garbage     *telemetry.Counter
	Timeouts    *telemetry.Counter
	// InFlight tracks calls issued but not yet completed.
	InFlight *telemetry.Gauge
}

// NewConnMetrics registers the client family (`wire_client_*`) in r. A nil
// registry yields working but unexported metrics.
func NewConnMetrics(r *telemetry.Registry) *ConnMetrics {
	m := &ConnMetrics{
		Datagrams:   r.Counter("wire_client_datagrams_total"),
		Responses:   r.Counter("wire_client_responses_total"),
		Retransmits: r.Counter("wire_client_retransmits_total"),
		Stray:       r.Counter("wire_client_stray_total"),
		Garbage:     r.Counter("wire_client_garbage_total"),
		Timeouts:    r.Counter("wire_client_timeouts_total"),
		InFlight:    r.Gauge("wire_client_inflight"),
	}
	for k := KindHello; k <= kindMax; k++ {
		if k.IsRequest() {
			m.Requests[k] = r.Counter(kindLabel("wire_client_requests_total", k))
			m.RecvByKind[k.Response()] = r.Counter(kindLabel("wire_client_recv_total", k.Response()))
		}
	}
	return m
}

// ResponderMetrics holds the server reliability layer's counters. A server
// shares one instance across every client session, so the series aggregate
// over sessions.
type ResponderMetrics struct {
	// Fresh requests executed; RecvByKind counts decoded request datagrams
	// by kind, duplicates included.
	Requests   *telemetry.Counter
	RecvByKind [NumKinds]*telemetry.Counter
	// Retransmissions answered from the reply cache (replayed responses),
	// undecodable datagrams, and decoded non-request kinds.
	Duplicates *telemetry.Counter
	Garbage    *telemetry.Counter
	Rejected   *telemetry.Counter
	// Requests dropped unexecuted: below the client's ack floor (late
	// duplicates of retired calls), or DefaultResponderWindow or more past it.
	Stale *telemetry.Counter
	Ahead *telemetry.Counter
}

// NewResponderMetrics registers the server family (`wire_server_*`) in r.
func NewResponderMetrics(r *telemetry.Registry) *ResponderMetrics {
	m := &ResponderMetrics{
		Requests:   r.Counter("wire_server_requests_total"),
		Duplicates: r.Counter("wire_server_replays_total"),
		Garbage:    r.Counter("wire_server_garbage_total"),
		Rejected:   r.Counter("wire_server_rejected_total"),
		Stale:      r.Counter("wire_server_stale_total"),
		Ahead:      r.Counter("wire_server_ahead_total"),
	}
	for k := KindHello; k <= kindMax; k++ {
		if k.IsRequest() {
			m.RecvByKind[k] = r.Counter(kindLabel("wire_server_recv_total", k))
		}
	}
	return m
}

// UDPServerMetrics counts session lifecycle events on the UDP listener.
type UDPServerMetrics struct {
	Started *telemetry.Counter // sessions opened (first datagram from a remote)
	Resets  *telemetry.Counter // sessions torn down by a fresh HELLO (token mismatch)
	Expired *telemetry.Counter // sessions reaped by the idle janitor
	Retired *telemetry.Counter // sessions closed by BYE
	Active  *telemetry.Gauge   // live sessions
}

// NewUDPServerMetrics registers the listener family (`wire_udp_*`) in r.
func NewUDPServerMetrics(r *telemetry.Registry) *UDPServerMetrics {
	return &UDPServerMetrics{
		Started: r.Counter("wire_udp_sessions_started_total"),
		Resets:  r.Counter("wire_udp_session_resets_total"),
		Expired: r.Counter("wire_udp_sessions_expired_total"),
		Retired: r.Counter("wire_udp_sessions_retired_total"),
		Active:  r.Gauge("wire_udp_sessions_active"),
	}
}
