package main

import (
	"sync"
	"time"

	"mixedmem/internal/hist"
	"mixedmem/internal/transport"
	"mixedmem/internal/transport/tcp"
)

// The traced run's transport-level spans come from timedTransport, a
// decorator around each peer's transport.Transport. It measures three
// things without any tracing inside the program:
//
//   - send: the duration of each Send/Broadcast call (payload encode plus
//     enqueue), per message kind;
//   - wire: the one-way time from a message's Send to its Recv. Channels are
//     FIFO per ordered node pair, so the k-th message received on (from, to)
//     is the k-th message sent on it: the decorator matches the two ends by
//     ordinal. All peers live in one OS process and share one clock;
//   - apply: the gap between Recv returning a message and the node's
//     receive loop calling Recv again, which is the time the loop spent
//     applying (dispatching) that message, per kind.
//
// Sends from one node are serialized through a per-node mutex held across
// the inner Send, so the ordinal recorded here is the ordinal the inner
// transport assigns. That serialization is part of the tracing overhead the
// traced run reports.

// wireClock is the state every decorator of one fleet shares.
type wireClock struct {
	n     int
	base  time.Time
	nodes []nodeClock
	pairs []pairFIFO // index from*n + to
}

// nodeClock is one node's send- and receive-side accounting.
type nodeClock struct {
	sendMu sync.Mutex
	send   map[string]*hist.Histogram

	recvMu   sync.Mutex
	wire     map[string]*hist.Histogram
	apply    map[string]*hist.Histogram
	lastRet  int64
	lastKind string
}

// pairFIFO holds the send timestamps of messages in flight on one ordered
// pair, oldest first.
type pairFIFO struct {
	mu   sync.Mutex
	sent []int64
	head int
}

func (q *pairFIFO) push(t int64) {
	q.mu.Lock()
	if q.head > 0 && q.head == len(q.sent) {
		q.sent, q.head = q.sent[:0], 0
	}
	q.sent = append(q.sent, t)
	q.mu.Unlock()
}

// dropLast withdraws the newest timestamp after the inner transport refused
// the message it stood for. Only the sending node pushes onto a pair, under
// its send mutex, so the newest entry is still the refused one.
func (q *pairFIFO) dropLast() {
	q.mu.Lock()
	if len(q.sent) > q.head {
		q.sent = q.sent[:len(q.sent)-1]
	}
	q.mu.Unlock()
}

func (q *pairFIFO) pop() (int64, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head == len(q.sent) {
		return 0, false
	}
	t := q.sent[q.head]
	q.head++
	if q.head > 1024 && q.head*2 > len(q.sent) {
		q.sent = append(q.sent[:0], q.sent[q.head:]...)
		q.head = 0
	}
	return t, true
}

func newWireClock(n int) *wireClock {
	c := &wireClock{n: n, base: time.Now(), nodes: make([]nodeClock, n), pairs: make([]pairFIFO, n*n)}
	for i := range c.nodes {
		c.nodes[i].send = map[string]*hist.Histogram{}
		c.nodes[i].wire = map[string]*hist.Histogram{}
		c.nodes[i].apply = map[string]*hist.Histogram{}
		c.nodes[i].lastRet = -1
	}
	return c
}

func (c *wireClock) now() int64 { return int64(time.Since(c.base)) }

func record(m map[string]*hist.Histogram, kind string, v int64) {
	h := m[kind]
	if h == nil {
		h = hist.New()
		m[kind] = h
	}
	h.Record(v)
}

// timedTransport decorates one transport. On the simulated fabric a single
// decorator serves every node; on TCP each peer gets its own, all sharing
// one wireClock.
type timedTransport struct {
	inner transport.Transport
	clock *wireClock
}

var _ transport.Transport = (*timedTransport)(nil)

func newTimedTransport(inner transport.Transport, clock *wireClock) *timedTransport {
	return &timedTransport{inner: inner, clock: clock}
}

func (t *timedTransport) Nodes() int { return t.inner.Nodes() }

func (t *timedTransport) Send(m transport.Message) error {
	if m.From < 0 || m.From >= t.clock.n || m.To < 0 || m.To >= t.clock.n {
		return t.inner.Send(m)
	}
	nc := &t.clock.nodes[m.From]
	kind := m.Kind
	nc.sendMu.Lock()
	defer nc.sendMu.Unlock()
	// The timestamp goes in before the inner Send: a zero-latency fabric
	// may hand the message to the receiver before Send returns.
	q := &t.clock.pairs[m.From*t.clock.n+m.To]
	start := t.clock.now()
	q.push(start)
	err := t.inner.Send(m)
	end := t.clock.now()
	if err != nil {
		q.dropLast()
		return err
	}
	record(nc.send, kind, end-start)
	return nil
}

func (t *timedTransport) Broadcast(from int, kind string, payload any, size int) error {
	if from < 0 || from >= t.clock.n {
		return t.inner.Broadcast(from, kind, payload, size)
	}
	nc := &t.clock.nodes[from]
	nc.sendMu.Lock()
	defer nc.sendMu.Unlock()
	start := t.clock.now()
	for to := 0; to < t.clock.n; to++ {
		if to != from {
			t.clock.pairs[from*t.clock.n+to].push(start)
		}
	}
	err := t.inner.Broadcast(from, kind, payload, size)
	end := t.clock.now()
	if err != nil {
		for to := 0; to < t.clock.n; to++ {
			if to != from {
				t.clock.pairs[from*t.clock.n+to].dropLast()
			}
		}
		return err
	}
	record(nc.send, kind, end-start)
	return nil
}

func (t *timedTransport) Recv(node int) (transport.Message, bool) {
	if node < 0 || node >= t.clock.n {
		return t.inner.Recv(node)
	}
	nc := &t.clock.nodes[node]
	called := t.clock.now()
	nc.recvMu.Lock()
	if nc.lastRet >= 0 {
		record(nc.apply, nc.lastKind, called-nc.lastRet)
		nc.lastRet = -1
	}
	nc.recvMu.Unlock()

	m, ok := t.inner.Recv(node)
	if !ok {
		return m, ok
	}
	got := t.clock.now()
	nc.recvMu.Lock()
	if m.From >= 0 && m.From < t.clock.n {
		if sent, matched := t.clock.pairs[m.From*t.clock.n+node].pop(); matched {
			record(nc.wire, m.Kind, got-sent)
		}
	}
	nc.lastRet, nc.lastKind = got, m.Kind
	nc.recvMu.Unlock()
	return m, ok
}

func (t *timedTransport) Pending(from, to int) int { return t.inner.Pending(from, to) }
func (t *timedTransport) Stats() transport.Stats   { return t.inner.Stats() }
func (t *timedTransport) Close()                   { t.inner.Close() }

// Diag forwards the TCP backend's link diagnostics, so the runtime's
// metrics registry sees the same counters with or without the decorator.
// Other backends report zeros.
func (t *timedTransport) Diag() tcp.Diag {
	if d, ok := t.inner.(interface{ Diag() tcp.Diag }); ok {
		return d.Diag()
	}
	return tcp.Diag{}
}

// merged folds one per-kind histogram family across every node.
func (c *wireClock) merged(pick func(*nodeClock) map[string]*hist.Histogram) map[string]*hist.Histogram {
	out := map[string]*hist.Histogram{}
	for i := range c.nodes {
		nc := &c.nodes[i]
		nc.sendMu.Lock()
		nc.recvMu.Lock()
		for kind, h := range pick(nc) {
			if out[kind] == nil {
				out[kind] = hist.New()
			}
			out[kind].Merge(h)
		}
		nc.recvMu.Unlock()
		nc.sendMu.Unlock()
	}
	return out
}
