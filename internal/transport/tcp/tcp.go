// Package tcp implements the transport.Transport interface over real TCP
// connections, one mixed-consistency node per OS process.
//
// The paper's runtime assumes exactly one thing of its network: reliable
// FIFO channels between every ordered pair of processes (Section 6). A TCP
// connection gives FIFO bytes between two endpoints, so the backend opens
// one connection per ordered pair: the channel i -> j is the connection
// dialed by i to j's listener, carrying only i's messages to j, with j's
// cumulative acknowledgements flowing back on the same socket. Deliveries
// from different senders arrive on different connections and interleave
// arbitrarily, exactly like the simulated fabric's per-pair queues.
//
// Reliability across connection failures comes from a sequence/ack layer on
// top of TCP: every message on a channel carries a per-channel sequence
// number, the sender keeps each message buffered until the receiver's
// cumulative ack covers it, and after a reconnect the sender replays the
// unacked suffix. The receiver delivers in sequence order and drops
// duplicates, so the channel stays FIFO and exactly-once no matter how many
// times the underlying socket is torn down and re-established. Acks are
// delayed and cumulative, like TCP's own delayed ACK: one acker goroutine per
// inbound connection writes the latest delivered sequence at most ackDelay
// after the first unacknowledged frame, or at once when ackEvery frames are
// waiting. Acks only reclaim replay buffers and end Flush; no protocol above
// the transport waits on them, so the delay is invisible to it. A connection
// supervisor per peer redials with exponential backoff and jitter; sends
// never block (they append to the unbounded per-peer buffer, as the
// non-blocking writes of Section 3 require).
//
// Wire format (all integers big-endian, encoding/binary): every frame is a
// uint32 body length followed by the body; the body's first byte is the
// frame type.
//
//	hello  1 | u32 magic "MXDM" | u32 senderID     (dialer's first frame)
//	msg    2 | u64 seq | u32 from | u32 to | str kind | u32 size
//	         | u32 payloadLen | payload            (payload via codec registry)
//	ack    3 | u64 cumSeq                          (acceptor -> dialer)
//
// Strings are uint32-length-prefixed. Payload encodings are the per-kind
// codecs registered in transport's registry by internal/dsm and
// internal/syncmgr.
package tcp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mixedmem/internal/obs"
	"mixedmem/internal/transport"
)

// Frame types.
const (
	frameHello = 1
	frameMsg   = 2
	frameAck   = 3
)

// helloMagic guards against a stranger dialing the port.
const helloMagic = 0x4d58444d // "MXDM"

// maxFrame bounds a frame body; larger frames indicate a corrupt stream.
const maxFrame = 1 << 26

// frameChunk is the size of a peer's frame arena chunks: push encodes
// outgoing frames back to back into the current chunk, so a burst of small
// frames costs one allocation per chunk rather than one per frame. A frame
// larger than a chunk gets an allocation of its own.
const frameChunk = 4096

// Delayed-ack bounds. A receiver acknowledges no later than ackDelay after
// the first frame it has not yet acked, and immediately once ackEvery frames
// are unacked, so a burst cannot grow the sender's replay buffer without
// bound while the timer runs.
const (
	ackDelay = time.Millisecond
	ackEvery = 256
)

// Config configures a TCP transport for one node.
type Config struct {
	// ID is this process's node identity, 0..len(Peers)-1. Required.
	ID int
	// Peers lists every node's address, indexed by node ID; Peers[ID] is
	// the local listen address. Required.
	Peers []string
	// Listener, when non-nil, is used instead of listening on Peers[ID] —
	// for tests and port-0 deployments that bind first and exchange
	// addresses afterwards.
	Listener net.Listener
	// DialTimeout bounds one connection attempt (default 2s).
	DialTimeout time.Duration
	// WriteTimeout bounds one frame write; a stalled peer counts as a
	// failed connection and triggers a redial (default 10s).
	WriteTimeout time.Duration
	// BackoffBase and BackoffMax shape the dial supervisor's exponential
	// backoff (defaults 25ms and 1s). Each retry sleeps a uniformly random
	// duration in [b/2, b), with b doubling up to BackoffMax.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed seeds the backoff jitter (deterministic per (Seed, ID, peer)).
	Seed int64
	// Logf, when non-nil, receives supervisor diagnostics (dial failures,
	// decode errors). Silent by default.
	Logf func(format string, args ...any)
	// Tracer, when non-nil, records transport resilience events —
	// reconnects with their replay counts — into the node's trace ring
	// (internal/obs). Nil, the default, compiles each site down to a nil
	// check.
	Tracer *obs.Tracer
}

func (c *Config) fill() {
	if c.DialTimeout == 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.BackoffBase == 0 {
		c.BackoffBase = 25 * time.Millisecond
	}
	if c.BackoffMax == 0 {
		c.BackoffMax = time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// Diag counts supervisor and decode events, for tests and operational
// visibility.
type Diag struct {
	// Dials counts successful outbound connections (first connects and
	// reconnects).
	Dials uint64
	// DialFailures counts failed connection attempts.
	DialFailures uint64
	// Replayed counts messages retransmitted after a reconnect.
	Replayed uint64
	// Duplicates counts received messages dropped by sequence dedup.
	Duplicates uint64
	// DecodeErrors counts inbound frames dropped as undecodable.
	DecodeErrors uint64
	// AcksSent counts cumulative ack frames written to inbound connections.
	AcksSent uint64
}

// Transport is a TCP-backed transport.Transport serving one local node.
type Transport struct {
	id  int
	n   int
	cfg Config
	ln  net.Listener

	inbox *queue
	peers []*peer // indexed by node ID; peers[id] is nil

	// lastSeq[j] is the highest sequence delivered from sender j; it
	// outlives individual connections so replays dedup correctly.
	rmu     sync.Mutex
	lastSeq []uint64

	msgsSent  atomic.Uint64
	bytesSent atomic.Uint64
	nodeSent  []atomic.Uint64
	kinds     sync.Map // string -> *kindCounter

	dials        atomic.Uint64
	dialFailures atomic.Uint64
	replayed     atomic.Uint64
	duplicates   atomic.Uint64
	decodeErrors atomic.Uint64
	acksSent     atomic.Uint64
	// ackers counts live acker goroutines. Each starts after its connection
	// is registered in conns and exits before the connection leaves it.
	ackers atomic.Int32

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	closeOnce sync.Once
	done      chan struct{}
	wg        sync.WaitGroup
}

var _ transport.Transport = (*Transport)(nil)

// peer is the outbound channel state for one remote node.
type peer struct {
	to   int
	addr string

	mu sync.Mutex
	// cond wakes the writer goroutine: new frames, a reconnect, close.
	// acked wakes Flush waiters when an ack trims buf (and on close). Acks
	// never wake the writer, which has nothing to do with them.
	cond  *sync.Cond
	acked *sync.Cond
	// buf holds encoded msg frames not yet acked; buf[i] carries sequence
	// base+i+1. next indexes the first frame not yet written to the
	// current connection; a reconnect resets it to 0, replaying the
	// unacked suffix.
	buf    [][]byte
	base   uint64
	next   int
	conn   net.Conn
	closed bool
	// chunk is the arena chunk push is filling. Frames are sub-slices of
	// chunks with their capacity capped at their own length, and a chunk is
	// only ever appended to, so the bytes of a frame never change once
	// pushed: the writer may hand them to the kernel outside p.mu while push
	// fills the rest of the chunk, and an ack can drop a frame the writer
	// still holds without harm. Frames are never reused; a chunk is garbage
	// once its last frame is acked and push has moved on to a new one.
	chunk []byte
	// wbatch is the writer goroutine's reusable frame-slice scratch. runPeer
	// guarantees a single writer; it fills and clears wbatch under p.mu.
	wbatch [][]byte
}

// ErrInvalidNode is returned for out-of-range node IDs.
var ErrInvalidNode = errors.New("tcp: invalid node id")

var errConnGone = errors.New("tcp: connection replaced or transport closed")

// New creates the transport: it starts listening for its peers and starts
// one connection supervisor per remote node. Dialing is lazy only in the
// sense that failures are retried forever with backoff; peers may come up
// in any order, minutes apart. Callers must Close the transport.
func New(cfg Config) (*Transport, error) {
	cfg.fill()
	n := len(cfg.Peers)
	if n == 0 {
		return nil, fmt.Errorf("tcp: empty peer list")
	}
	if cfg.ID < 0 || cfg.ID >= n {
		return nil, fmt.Errorf("tcp: id %d with %d peers: %w", cfg.ID, n, ErrInvalidNode)
	}
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Peers[cfg.ID])
		if err != nil {
			return nil, fmt.Errorf("tcp: listen %s: %w", cfg.Peers[cfg.ID], err)
		}
	}
	t := &Transport{
		id:       cfg.ID,
		n:        n,
		cfg:      cfg,
		ln:       ln,
		inbox:    newQueue(),
		peers:    make([]*peer, n),
		lastSeq:  make([]uint64, n),
		nodeSent: make([]atomic.Uint64, n),
		conns:    make(map[net.Conn]struct{}),
		done:     make(chan struct{}),
	}
	for j := 0; j < n; j++ {
		if j == cfg.ID {
			continue
		}
		p := &peer{to: j, addr: cfg.Peers[j]}
		p.cond = sync.NewCond(&p.mu)
		p.acked = sync.NewCond(&p.mu)
		t.peers[j] = p
		t.wg.Add(1)
		go t.runPeer(p)
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the listener's address (useful with port-0 listeners).
func (t *Transport) Addr() net.Addr { return t.ln.Addr() }

// Nodes returns the number of nodes the transport connects.
func (t *Transport) Nodes() int { return t.n }

// Send enqueues m for FIFO delivery to m.To. It never blocks: remote sends
// append to the peer's unbounded replay buffer, local sends go straight to
// the inbox. The error is non-nil only for invalid node IDs or payloads the
// codec registry cannot encode.
func (t *Transport) Send(m transport.Message) error {
	if m.From != t.id {
		return fmt.Errorf("tcp: send from %d on node %d: %w", m.From, t.id, ErrInvalidNode)
	}
	if m.To < 0 || m.To >= t.n {
		return fmt.Errorf("tcp: send %d->%d: %w", m.From, m.To, ErrInvalidNode)
	}
	if m.To == t.id {
		t.account(m)
		t.inbox.push(m)
		return nil
	}
	payload, err := transport.EncodePayload(transport.GetBuf(), m.Kind, m.Payload)
	if err != nil {
		transport.PutBuf(payload)
		return fmt.Errorf("tcp: send %d->%d kind %q: %w", m.From, m.To, m.Kind, err)
	}
	t.account(m)
	t.peers[m.To].push(m, payload)
	transport.PutBuf(payload) // push copied it into the frame
	// The payload object's pooled internals (for example a batch's entry
	// slice) are fully captured in the encoding; hand them back.
	transport.RecyclePayload(m.Kind, m.Payload)
	return nil
}

// Broadcast sends to every node except the sender.
func (t *Transport) Broadcast(from int, kind string, payload any, size int) error {
	if from != t.id {
		return fmt.Errorf("tcp: broadcast from %d on node %d: %w", from, t.id, ErrInvalidNode)
	}
	enc, err := transport.EncodePayload(transport.GetBuf(), kind, payload)
	if err != nil {
		transport.PutBuf(enc)
		return fmt.Errorf("tcp: broadcast kind %q: %w", kind, err)
	}
	for to := 0; to < t.n; to++ {
		if to == from {
			continue
		}
		m := transport.Message{From: from, To: to, Kind: kind, Payload: payload, Size: size}
		t.account(m)
		t.peers[to].push(m, enc)
	}
	transport.PutBuf(enc)
	transport.RecyclePayload(kind, payload)
	return nil
}

// Recv blocks until a message for the local node is delivered. Recv for any
// other node returns false immediately: a TCP transport instance serves
// exactly one process.
func (t *Transport) Recv(node int) (transport.Message, bool) {
	if node != t.id {
		return transport.Message{}, false
	}
	return t.inbox.pop()
}

// Pending reports the number of messages queued locally for the channel
// from -> to and not yet handed to the kernel. Only outbound channels of
// the local node are visible.
func (t *Transport) Pending(from, to int) int {
	if from != t.id || to < 0 || to >= t.n || to == t.id {
		return 0
	}
	p := t.peers[to]
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.buf) - p.next
}

// kindCounter accumulates per-kind message and byte totals, mirroring the
// simulated fabric's accounting so experiments read the same shape from
// either backend.
type kindCounter struct {
	msgs  atomic.Uint64
	bytes atomic.Uint64
}

func (t *Transport) account(m transport.Message) {
	t.msgsSent.Add(1)
	t.bytesSent.Add(uint64(m.Size))
	t.nodeSent[m.From].Add(1)
	c, ok := t.kinds.Load(m.Kind)
	if !ok {
		c, _ = t.kinds.LoadOrStore(m.Kind, new(kindCounter))
	}
	kc := c.(*kindCounter)
	kc.msgs.Add(1)
	kc.bytes.Add(uint64(m.Size))
}

// Stats returns a snapshot of the accounting counters. On a distributed
// transport only the local node's sends are visible; per-experiment totals
// are the sum over all processes' snapshots.
func (t *Transport) Stats() transport.Stats {
	s := transport.Stats{
		MessagesSent: t.msgsSent.Load(),
		BytesSent:    t.bytesSent.Load(),
		PerNodeSent:  make([]uint64, t.n),
		PerKind:      make(map[string]uint64),
		PerKindBytes: make(map[string]uint64),
	}
	for i := range s.PerNodeSent {
		s.PerNodeSent[i] = t.nodeSent[i].Load()
	}
	t.kinds.Range(func(k, v any) bool {
		kc := v.(*kindCounter)
		s.PerKind[k.(string)] = kc.msgs.Load()
		s.PerKindBytes[k.(string)] = kc.bytes.Load()
		return true
	})
	return s
}

// Diag returns a snapshot of the supervisor and decode counters.
func (t *Transport) Diag() Diag {
	return Diag{
		Dials:        t.dials.Load(),
		DialFailures: t.dialFailures.Load(),
		Replayed:     t.replayed.Load(),
		Duplicates:   t.duplicates.Load(),
		DecodeErrors: t.decodeErrors.Load(),
		AcksSent:     t.acksSent.Load(),
	}
}

// Flush blocks until every peer has acknowledged every message sent so far
// or the timeout elapses, whichever is first. It reports whether all
// channels drained. Distributed deployments call it before Close so the
// tail of the conversation (final barrier releases, lock handoffs) reaches
// peers that still need it; Close itself drops unacked messages.
func (t *Transport) Flush(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	drained := true
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		for len(p.buf) > 0 && !p.closed && time.Now().Before(deadline) {
			// Poll: acks broadcast acked, but a dead peer never will, so
			// bound each wait.
			w := time.AfterFunc(10*time.Millisecond, p.acked.Broadcast)
			p.acked.Wait()
			w.Stop()
		}
		if len(p.buf) > 0 {
			drained = false
		}
		p.mu.Unlock()
	}
	return drained
}

// DropConn force-closes the current connection to peer `to`, if any. It is
// a test aid for exercising the reconnect path; the supervisor redials and
// replays unacked messages, so no traffic is lost.
func (t *Transport) DropConn(to int) {
	if to < 0 || to >= t.n || to == t.id {
		return
	}
	p := t.peers[to]
	p.mu.Lock()
	if p.conn != nil {
		p.conn.Close()
	}
	p.mu.Unlock()
}

// Close shuts the transport down: stops the supervisors, closes every
// connection and the listener, and unblocks receivers. Messages not yet
// acked by their destination are dropped, like the fabric's undelivered
// queue contents at Close. Close is idempotent and waits for all internal
// goroutines to exit.
func (t *Transport) Close() {
	t.closeOnce.Do(func() {
		close(t.done)
		t.ln.Close()
		for _, p := range t.peers {
			if p == nil {
				continue
			}
			p.mu.Lock()
			p.closed = true
			if p.conn != nil {
				p.conn.Close()
			}
			p.cond.Broadcast()
			p.acked.Broadcast()
			p.mu.Unlock()
		}
		t.connMu.Lock()
		for c := range t.conns {
			c.Close()
		}
		t.connMu.Unlock()
		t.wg.Wait()
		t.inbox.close()
	})
}

// push assigns m the channel's next sequence number, encodes it as a frame
// into the peer's arena chunk, and appends the frame to the replay buffer.
func (p *peer) push(m transport.Message, payload []byte) {
	size := msgFrameLen(m, payload)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	seq := p.base + uint64(len(p.buf)) + 1
	var frame []byte
	if size > frameChunk {
		frame = appendMsgFrame(make([]byte, 0, size), seq, m, payload)
	} else {
		if cap(p.chunk)-len(p.chunk) < size {
			p.chunk = make([]byte, 0, frameChunk)
		}
		start := len(p.chunk)
		p.chunk = appendMsgFrame(p.chunk, seq, m, payload)
		frame = p.chunk[start:len(p.chunk):len(p.chunk)]
	}
	p.buf = append(p.buf, frame)
	p.cond.Signal()
}

// advanceAck drops the frames a cumulative ack covers from the replay
// buffer, moving the unacked suffix to the front so the buffer's backing
// array is reused rather than reallocated as the window slides.
func (p *peer) advanceAck(cum uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if cum <= p.base {
		return
	}
	defer p.acked.Broadcast() // wake Flush waiters
	drop := int(cum - p.base)
	if drop > len(p.buf) {
		drop = len(p.buf)
	}
	k := copy(p.buf, p.buf[drop:])
	clear(p.buf[k:])
	p.buf = p.buf[:k]
	p.base += uint64(drop)
	p.next -= drop
	if p.next < 0 {
		p.next = 0
	}
}

// runPeer is the connection supervisor for one outbound channel: dial with
// exponential backoff and jitter, replay the unacked suffix, stream frames,
// and start over whenever the connection dies.
func (t *Transport) runPeer(p *peer) {
	defer t.wg.Done()
	backoff := t.cfg.BackoffBase
	rng := rand.New(rand.NewSource(t.cfg.Seed ^ int64(t.id)*104729 ^ int64(p.to)*7919))
	for {
		select {
		case <-t.done:
			return
		default:
		}
		conn, err := net.DialTimeout("tcp", p.addr, t.cfg.DialTimeout)
		if err != nil {
			t.dialFailures.Add(1)
			t.cfg.Logf("tcp: node %d dial %d (%s): %v", t.id, p.to, p.addr, err)
			half := backoff / 2
			sleep := half + time.Duration(rng.Int63n(int64(half)+1))
			select {
			case <-time.After(sleep):
			case <-t.done:
				return
			}
			if backoff < t.cfg.BackoffMax {
				backoff *= 2
				if backoff > t.cfg.BackoffMax {
					backoff = t.cfg.BackoffMax
				}
			}
			continue
		}
		if err := t.writeHello(conn); err != nil {
			t.dialFailures.Add(1)
			conn.Close()
			continue
		}
		t.dials.Add(1)
		backoff = t.cfg.BackoffBase

		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			conn.Close()
			return
		}
		p.conn = conn
		if p.next > 0 {
			t.replayed.Add(uint64(p.next))
		}
		if t.cfg.Tracer != nil {
			// A counts the frames that will be re-sent as duplicates (same
			// semantics as the Replayed diag counter).
			t.cfg.Tracer.Record(obs.EvReconnect, 0, uint16(p.to), obs.NoLoc,
				t.dials.Load(), uint64(p.next), 0)
		}
		p.next = 0 // replay everything unacked on the fresh connection
		p.cond.Broadcast()
		p.mu.Unlock()

		ackDone := make(chan struct{})
		go t.readAcks(p, conn, ackDone)
		err = t.writeFrames(p, conn)
		conn.Close()
		<-ackDone
		p.mu.Lock()
		if p.conn == conn {
			p.conn = nil
		}
		p.cond.Broadcast()
		p.mu.Unlock()
		if err != nil && !errors.Is(err, errConnGone) {
			t.cfg.Logf("tcp: node %d channel to %d: %v", t.id, p.to, err)
		}
	}
}

func (t *Transport) writeHello(conn net.Conn) error {
	frame := transport.GetBuf()
	frame = transport.AppendUint32(frame, 9)
	frame = append(frame, frameHello)
	frame = transport.AppendUint32(frame, helloMagic)
	frame = transport.AppendUint32(frame, uint32(t.id))
	conn.SetWriteDeadline(time.Now().Add(t.cfg.WriteTimeout))
	_, err := conn.Write(frame)
	transport.PutBuf(frame)
	return err
}

// writeFrames streams the replay buffer to the connection until it fails,
// is replaced, or the transport closes. Each round snapshots the unwritten
// suffix into the writer's reusable scratch and hands it to the kernel as
// one vectored write (net.Buffers → writev), so a flushed outbox batch goes
// out in a single syscall with no intermediate copy.
func (t *Transport) writeFrames(p *peer, conn net.Conn) error {
	for {
		p.mu.Lock()
		// Let go of the frames just written: acked ones are the garbage
		// collector's as soon as nothing else holds them.
		clear(p.wbatch)
		p.wbatch = p.wbatch[:0]
		for p.next >= len(p.buf) && p.conn == conn && !p.closed {
			p.cond.Wait()
		}
		if p.closed || p.conn != conn {
			p.mu.Unlock()
			return errConnGone
		}
		p.wbatch = append(p.wbatch, p.buf[p.next:]...)
		p.next = len(p.buf)
		p.mu.Unlock()

		conn.SetWriteDeadline(time.Now().Add(t.cfg.WriteTimeout))
		bufs := net.Buffers(p.wbatch)
		if _, err := bufs.WriteTo(conn); err != nil {
			return err
		}
	}
}

// readAcks consumes cumulative acks on an outbound connection. On any read
// error it tears the connection down so the writer redials.
func (t *Transport) readAcks(p *peer, conn net.Conn, done chan struct{}) {
	defer close(done)
	br := bufio.NewReader(conn)
	body := transport.GetBuf()
	defer func() { transport.PutBuf(body) }()
	for {
		var err error
		body, err = readFrame(br, body)
		if err != nil {
			conn.Close()
			p.mu.Lock()
			if p.conn == conn {
				p.conn = nil
			}
			p.cond.Broadcast()
			p.mu.Unlock()
			return
		}
		if len(body) == 9 && body[0] == frameAck {
			p.advanceAck(binary.BigEndian.Uint64(body[1:]))
		}
	}
}

// acceptLoop serves inbound connections until the listener closes.
func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return
		}
		t.connMu.Lock()
		select {
		case <-t.done:
			t.connMu.Unlock()
			conn.Close()
			return
		default:
		}
		t.conns[conn] = struct{}{}
		t.connMu.Unlock()
		t.wg.Add(1)
		go t.serveConn(conn)
	}
}

// serveConn receives one peer's channel: validate the hello, then deliver
// msg frames in sequence order, dropping duplicates from replays. Each frame,
// delivered or dropped, only records the new cumulative sequence; the
// connection's acker goroutine writes the acks.
func (t *Transport) serveConn(conn net.Conn) {
	defer t.wg.Done()
	var a *acker
	defer func() {
		conn.Close() // unblocks an acker stuck in Write
		if a != nil {
			a.stop()
		}
		t.connMu.Lock()
		delete(t.conns, conn)
		t.connMu.Unlock()
	}()
	br := bufio.NewReader(conn)
	// body is the connection's reusable frame buffer: readFrame fills it in
	// place (growing as needed) and every decode copies what it keeps, so one
	// buffer serves every frame of the connection.
	body := transport.GetBuf()
	defer func() { transport.PutBuf(body) }()
	body, err := readFrame(br, body)
	if err != nil || len(body) != 9 || body[0] != frameHello ||
		binary.BigEndian.Uint32(body[1:]) != helloMagic {
		return
	}
	from := int(binary.BigEndian.Uint32(body[5:]))
	if from < 0 || from >= t.n || from == t.id {
		return
	}
	a = newAcker(conn)
	t.ackers.Add(1)
	go t.runAcker(a)
	for {
		body, err = readFrame(br, body)
		if err != nil {
			return
		}
		if len(body) == 0 || body[0] != frameMsg {
			continue
		}
		m, seq, err := decodeMsgFrame(body)
		if err == nil && m.From != from {
			// The hello fixed the channel's sender; dedup and every
			// per-sender structure above the transport trust m.From.
			err = fmt.Errorf("tcp: frame names sender %d", m.From)
		}
		if err != nil {
			t.decodeErrors.Add(1)
			t.cfg.Logf("tcp: node %d from %d: %v", t.id, from, err)
			continue
		}
		// The dedup check and the inbox push form one step under rmu: after a
		// reconnect the old and the new connection of one sender can deliver
		// overlapping sequences concurrently, and a push outside the lock
		// could let the new connection's frame overtake the old one's.
		t.rmu.Lock()
		dup := seq <= t.lastSeq[from]
		if !dup {
			t.lastSeq[from] = seq
			t.inbox.push(m)
		}
		cum := t.lastSeq[from]
		t.rmu.Unlock()
		if dup {
			t.duplicates.Add(1)
		}
		// Duplicates are acked too: after a reconnect the sender is waiting
		// for an ack of frames whose first ack died with the old socket.
		a.record(cum)
	}
}

// acker is the delayed cumulative acknowledger of one inbound connection.
// The reader records each frame's cumulative sequence with record, arming
// the acker's timer on the first unacked frame; when the timer fires, or
// sooner once ackEvery frames are waiting, the acker goroutine writes one
// ack carrying the latest sequence.
type acker struct {
	conn net.Conn
	// cum is the highest sequence delivered on the channel; unacked counts
	// frames recorded since the acker last took a snapshot of cum. The
	// reader stores cum before bumping unacked and the acker zeroes unacked
	// before loading cum, so every frame is either covered by the ack being
	// written or bumps unacked from zero and arms the timer for the next.
	cum     atomic.Uint64
	unacked atomic.Int64
	timer   *time.Timer
	urgent  chan struct{} // ackEvery frames unacked (capacity 1)
	quit    chan struct{}
	done    chan struct{}
}

func newAcker(conn net.Conn) *acker {
	a := &acker{
		conn:   conn,
		timer:  time.NewTimer(time.Hour),
		urgent: make(chan struct{}, 1),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	a.timer.Stop() // armed by record
	return a
}

// record notes a received frame whose delivery leaves the channel's
// cumulative sequence at cum.
func (a *acker) record(cum uint64) {
	a.cum.Store(cum)
	switch a.unacked.Add(1) {
	case 1:
		a.timer.Reset(ackDelay)
	case ackEvery:
		select {
		case a.urgent <- struct{}{}:
		default: // a wakeup is already pending
		}
	}
}

// stop ends the acker goroutine and waits for it to exit.
func (a *acker) stop() {
	close(a.quit)
	<-a.done
}

// testHookAckerExit runs as an acker goroutine exits; tests slow it down to
// prove that connection teardown and Close wait for the exit.
var testHookAckerExit = func() {}

// runAcker writes the connection's acks until stop is called or a write
// fails; a failed write closes the connection, which ends the reader too.
// A tick or urgent wakeup left over from an earlier round only makes a
// later ack early, never late.
func (t *Transport) runAcker(a *acker) {
	defer close(a.done)
	defer t.ackers.Add(-1)
	defer testHookAckerExit()
	defer a.timer.Stop()
	var frame [13]byte
	binary.BigEndian.PutUint32(frame[:], 9)
	frame[4] = frameAck
	for {
		select {
		case <-a.timer.C:
		case <-a.urgent:
			a.timer.Stop()
			select {
			case <-a.timer.C:
			default:
			}
		case <-a.quit:
			return
		}
		a.unacked.Store(0)
		binary.BigEndian.PutUint64(frame[5:], a.cum.Load())
		a.conn.SetWriteDeadline(time.Now().Add(t.cfg.WriteTimeout))
		if _, err := a.conn.Write(frame[:]); err != nil {
			a.conn.Close()
			return
		}
		t.acksSent.Add(1)
	}
}

// appendMsgFrame encodes one message as a framed msg record.
func appendMsgFrame(dst []byte, seq uint64, m transport.Message, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length, patched below
	dst = append(dst, frameMsg)
	dst = transport.AppendUint64(dst, seq)
	dst = transport.AppendUint32(dst, uint32(m.From))
	dst = transport.AppendUint32(dst, uint32(m.To))
	dst = transport.AppendString(dst, m.Kind)
	dst = transport.AppendUint32(dst, uint32(m.Size))
	dst = transport.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// msgFrameLen is the length of the frame appendMsgFrame encodes for m.
func msgFrameLen(m transport.Message, payload []byte) int {
	// length prefix, type, seq, from, to, kind, size, payload length
	return 4 + 1 + 8 + 4 + 4 + 4 + len(m.Kind) + 4 + 4 + len(payload)
}

// decodeMsgFrame parses a msg frame body back into a Message.
func decodeMsgFrame(body []byte) (transport.Message, uint64, error) {
	d := transport.NewDecoder(body[1:])
	seq := d.Uint64()
	m := transport.Message{
		From: int(d.Uint32()),
		To:   int(d.Uint32()),
		Kind: d.String(),
	}
	m.Size = int(d.Uint32())
	plen := int(d.Uint32())
	if err := d.Err(); err != nil {
		return m, seq, err
	}
	if plen != d.Remaining() {
		return m, seq, fmt.Errorf("tcp: payload length %d with %d bytes remaining", plen, d.Remaining())
	}
	if plen > 0 {
		payload, err := transport.DecodePayload(m.Kind, body[len(body)-plen:])
		if err != nil {
			return m, seq, err
		}
		m.Payload = payload
	}
	return m, seq, nil
}

// readFrame reads one length-prefixed frame body into buf, growing it only
// when a frame exceeds its capacity. The caller owns exactly one buffer per
// connection and passes the previous return value back in, so steady-state
// reading allocates nothing; every decode must copy what it keeps out of the
// returned slice before the next call. The length prefix is peeked from the
// reader's own buffer: a local array handed to io.ReadFull would escape and
// cost an allocation per frame.
func readFrame(br *bufio.Reader, buf []byte) ([]byte, error) {
	prefix, err := br.Peek(4)
	if err != nil {
		return buf, err
	}
	n := binary.BigEndian.Uint32(prefix)
	br.Discard(4)
	if n > maxFrame {
		return buf, fmt.Errorf("tcp: frame of %d bytes exceeds limit", n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(br, buf); err != nil {
		return buf, err
	}
	return buf, nil
}
