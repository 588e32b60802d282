package main

import (
	"cmp"
	"slices"
)

// spanStats is what the traced run's spans say about each layer.
type spanStats struct {
	ops         int // traced ops with a complete issue and callback
	incomplete  int // traced ops missing their issue or callback span
	violations  int // spans outside the span that called them, or orphaned
	selfNs      [numSpanKinds]float64
	durNs       [numSpanKinds]float64
	count       [numSpanKinds]int
	handleNs    [numKinds]float64
	handleCount [numKinds]int
	latNs       float64
	waitNs      float64 // latency minus the layer self times along the op
}

func (s *spanStats) meanSelf(kinds ...spanKind) float64 {
	var sum float64
	var n int
	for _, k := range kinds {
		sum += s.selfNs[k]
		n += s.count[k]
	}
	return ratio(sum, float64(n))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func contains(p, c *span) bool { return p.start <= c.start && c.end <= p.end }

// overlap is the length of [s, e) inside [lo, hi).
func overlap(s, e, lo, hi int64) int64 {
	return max(0, min(e, hi)-max(s, lo))
}

// analyzeSpans groups spans by op, links every span to the call that made
// it, and derives self times: a span's duration minus its children's.
// Calls on one goroutine nest, so a child outside its parent is a tracing
// error (a violation). On UDP a request's server side and a response's
// client side start fresh trees on other goroutines, linked to the
// client's send by node and message ID; on the in-process loopback the
// whole op is one tree.
func analyzeSpans(spans []span, udp bool) spanStats {
	var st spanStats
	slices.SortFunc(spans, func(a, b span) int {
		return cmp.Or(cmp.Compare(a.seq, b.seq), cmp.Compare(a.start, b.start))
	})
	for lo := 0; lo < len(spans); {
		hi := lo + 1
		for hi < len(spans) && spans[hi].seq == spans[lo].seq {
			hi++
		}
		st.addOp(spans[lo:hi], udp)
		lo = hi
	}
	return st
}

func (st *spanStats) addOp(g []span, udp bool) {
	issue, cb := -1, -1
	for i := range g {
		switch g[i].kind {
		case spIssue:
			issue = i
		case spCallback:
			cb = i
		}
	}
	if issue < 0 || cb < 0 {
		st.incomplete++
		return
	}
	st.ops++
	// innermost returns the latest-starting span among those matching
	// that contains g[i], or -1.
	innermost := func(i int, match func(j int) bool) int {
		best := -1
		for j := range g {
			if j != i && match(j) && contains(&g[j], &g[i]) && (best < 0 || g[j].start > g[best].start) {
				best = j
			}
		}
		return best
	}
	sameMsg := func(i int, kind spanKind) func(j int) bool {
		return func(j int) bool { return g[j].kind == kind && g[j].node == g[i].node && g[j].id == g[i].id }
	}
	parent := make([]int, len(g))
	for i := range g {
		parent[i] = -1
		need := true
		switch g[i].kind {
		case spIssue:
			need = false
		case spSend:
			parent[i] = innermost(i, func(j int) bool { return g[j].kind == spIssue || g[j].kind == spCliDeliver })
			// A retransmission comes from the reliable layer's retry
			// timer, which no span covers.
			need = parent[i] >= 0 || !slices.ContainsFunc(g[:i], func(o span) bool {
				return o.kind == spSend && o.node == g[i].node && o.id == g[i].id
			})
		case spSrvDeliver:
			need = !udp
			if need {
				parent[i] = innermost(i, sameMsg(i, spSend))
			}
		case spHandle, spReply:
			parent[i] = innermost(i, sameMsg(i, spSrvDeliver))
		case spCliDeliver:
			need = !udp
			if need {
				parent[i] = innermost(i, sameMsg(i, spReply))
			}
		case spCallback:
			// A cluster op whose replies all land before its issuing call
			// returns completes from that call.
			parent[i] = innermost(i, func(j int) bool { return g[j].kind == spCliDeliver || g[j].kind == spIssue })
		}
		if need && parent[i] < 0 {
			st.violations++
		}
	}
	self := make([]int64, len(g))
	for i := range g {
		self[i] = g[i].end - g[i].start
	}
	for i := range g {
		if p := parent[i]; p >= 0 {
			self[p] -= g[i].end - g[i].start
		}
	}
	for i := range g {
		if self[i] < 0 { // children overlapping each other
			st.violations++
		}
		k := g[i].kind
		st.selfNs[k] += float64(self[i])
		st.durNs[k] += float64(g[i].end - g[i].start)
		st.count[k]++
		if k == spHandle {
			st.handleNs[g[i].op] += float64(g[i].end - g[i].start)
			st.handleCount[g[i].op]++
		}
	}
	t0, t1 := g[issue].start, g[cb].start
	along, ok := alongOp(g, parent, cb, t0, t1)
	if !ok {
		st.violations++
	}
	lat := t1 - t0
	st.latNs += float64(lat)
	st.waitNs += float64(lat - along)
}

// alongOp sums the self times of the spans along the op's path to its
// callback, clipped to the time the op was at each step. The path is a
// chain of call trees, each on one goroutine: the callback's tree, the
// tree of the server that sent the reply it handled, the tree that sent
// that server's request, and so on back to the issuing call. Each tree
// counts from its root's start until the next tree downstream starts (the
// callback's tree until the callback), so work a goroutine does after the
// op has moved on, such as a send call returning after the server began,
// counts once. When the spans of a tree nest, their self times sum to its
// root's duration, so a tree's clipped share is the part of its root in
// its interval. The intervals are disjoint and lie within the latency, so
// the sum never exceeds it; nesting is what analyzeSpans checks. ok is
// false if the chain breaks.
func alongOp(g []span, parent []int, cb int, t0, t1 int64) (along int64, ok bool) {
	find := func(kind spanKind, node uint8, id uint32) int {
		for j := range g {
			if g[j].kind == kind && g[j].node == node && g[j].id == id {
				return j
			}
		}
		return -1
	}
	hi := t1
	for i := cb; ; {
		r := i
		for parent[r] >= 0 {
			r = parent[r]
		}
		along += overlap(g[r].start, g[r].end, max(g[r].start, t0), hi)
		switch g[r].kind {
		case spIssue:
			return along, true
		case spCliDeliver:
			i = find(spReply, g[r].node, g[r].id)
		case spSrvDeliver:
			i = find(spSend, g[r].node, g[r].id)
		default:
			i = -1
		}
		if i < 0 {
			return along, false
		}
		hi = g[r].start
	}
}
