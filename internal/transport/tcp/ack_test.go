package tcp

import (
	"io"
	"net"
	"testing"
	"time"

	"mixedmem/internal/transport"
)

func sendT(t *testing.T, tr *Transport, from, to int, v uint64) {
	t.Helper()
	if err := tr.Send(transport.Message{From: from, To: to, Kind: "tcptest", Payload: v, Size: 8}); err != nil {
		t.Fatalf("send %d->%d #%d: %v", from, to, v, err)
	}
}

// TestBurstIsAckedCumulatively pins delayed cumulative acks: a burst of 1000
// frames is acknowledged by at most 250 ack frames (one per frame would be
// 1000), and the acks end on sequence 1000, releasing the whole replay
// buffer.
func TestBurstIsAckedCumulatively(t *testing.T) {
	trs := newLoopbackT(t, 2)
	const total = 1000
	for i := 0; i < total; i++ {
		sendT(t, trs[0], 0, 1, uint64(i))
	}
	for want := uint64(0); want < total; want++ {
		if got := recvT(t, trs[1], 1).Payload.(uint64); got != want {
			t.Fatalf("got %d, want %d", got, want)
		}
	}
	if !trs[0].Flush(10 * time.Second) {
		t.Fatal("Flush timed out with a live peer")
	}
	p := trs[0].peers[1]
	p.mu.Lock()
	base, buffered := p.base, len(p.buf)
	p.mu.Unlock()
	if base != total || buffered != 0 {
		t.Fatalf("sender acked through %d with %d buffered, want %d and 0", base, buffered, total)
	}
	acks := trs[1].Diag().AcksSent
	t.Logf("%d frames acked with %d ack frames", total, acks)
	if acks == 0 || acks > total/4 {
		t.Fatalf("AcksSent = %d for a %d-frame burst, want 1..%d", acks, total, total/4)
	}
}

// TestSendThenFlushIsPrompt bounds the cost of the ack delay as Flush sees
// it: one message on a warm connection is acknowledged, and Flush returns,
// well within 100 ms.
func TestSendThenFlushIsPrompt(t *testing.T) {
	trs := newLoopbackT(t, 2)
	sendT(t, trs[0], 0, 1, 0) // dial and warm the channel
	recvT(t, trs[1], 1)
	if !trs[0].Flush(10 * time.Second) {
		t.Fatal("warm-up Flush timed out")
	}
	start := time.Now()
	sendT(t, trs[0], 0, 1, 1)
	if !trs[0].Flush(10 * time.Second) {
		t.Fatal("Flush timed out with a live peer")
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("Send then Flush took %v, want < 100ms", d)
	}
	recvT(t, trs[1], 1)
}

// liveAckersWithinConns checks, under the connection registry lock, that
// every running acker belongs to a registered connection: an acker starts
// after its connection is registered and is joined before the connection
// is removed, so the count of ackers never exceeds the count of
// connections.
func liveAckersWithinConns(t *testing.T, tr *Transport) {
	t.Helper()
	tr.connMu.Lock()
	conns, ackers := len(tr.conns), tr.ackers.Load()
	tr.connMu.Unlock()
	if int(ackers) > conns {
		t.Fatalf("%d ackers running for %d connections: an acker outlived its connection", ackers, conns)
	}
}

// TestAckerJoinedOnConnAndTransportClose checks the acker goroutine's
// lifetime: it ends with its connection (killed here repeatedly by the
// sender) and Close returns only after every acker has exited.
func TestAckerJoinedOnConnAndTransportClose(t *testing.T) {
	// A slow acker exit widens the window in which an unjoined acker would
	// outlive its connection or the transport.
	testHookAckerExit = func() { time.Sleep(5 * time.Millisecond) }
	defer func() { testHookAckerExit = func() {} }()
	trs, err := NewLoopback(2, nil)
	if err != nil {
		t.Fatalf("NewLoopback: %v", err)
	}
	defer trs[0].Close()
	var v uint64
	for round := 0; round < 5; round++ {
		for i := 0; i < 20; i++ {
			sendT(t, trs[0], 0, 1, v)
			v++
		}
		for i := 0; i < 20; i++ {
			recvT(t, trs[1], 1)
			liveAckersWithinConns(t, trs[1])
		}
		trs[0].DropConn(1)
		for i := 0; i < 50; i++ {
			liveAckersWithinConns(t, trs[1])
			time.Sleep(100 * time.Microsecond)
		}
	}
	if trs[1].ackers.Load() == 0 {
		t.Fatal("no acker running on a receiver with an open inbound connection")
	}
	trs[1].Close()
	if n := trs[1].ackers.Load(); n != 0 {
		t.Fatalf("%d ackers still running after Close returned", n)
	}
}

// TestOverlappingConnectionsDeliverInOrder feeds one sender's stream into
// the receiver over two connections at once, as happens after a reconnect
// while the old socket still holds undelivered frames. Whichever connection
// delivers a sequence number first wins and the other drops it as a
// duplicate, but the inbox must still see every message once, in order.
func TestOverlappingConnectionsDeliverInOrder(t *testing.T) {
	trs := newLoopbackT(t, 2)
	tr := trs[1]
	const total = 3000
	var stream []byte
	stream = transport.AppendUint32(stream, 9)
	stream = append(stream, frameHello)
	stream = transport.AppendUint32(stream, helloMagic)
	stream = transport.AppendUint32(stream, 0)
	for seq := uint64(1); seq <= total; seq++ {
		payload, err := transport.EncodePayload(nil, "tcptest", seq)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		m := transport.Message{From: 0, To: 1, Kind: "tcptest", Size: 8}
		stream = appendMsgFrame(stream, seq, m, payload)
	}
	for c := 0; c < 2; c++ {
		client, server := net.Pipe()
		tr.connMu.Lock()
		tr.conns[server] = struct{}{}
		tr.connMu.Unlock()
		tr.wg.Add(1)
		go tr.serveConn(server)
		go io.Copy(io.Discard, client) // drain acks
		go func() {
			defer client.Close()
			client.Write(stream)
		}()
	}
	for want := uint64(1); want <= total; want++ {
		if got := recvT(t, tr, 1).Payload.(uint64); got != want {
			t.Fatalf("got %d, want %d: two connections of one sender reordered delivery", got, want)
		}
	}
}

// TestForgedSenderFrameDropped feeds a channel whose hello names sender 0 a
// frame that claims sender 1. The hello fixes the channel's sender, so the
// frame is dropped as undecodable instead of being delivered as sender 1's;
// the next genuine frame still arrives.
func TestForgedSenderFrameDropped(t *testing.T) {
	trs := newLoopbackT(t, 3)
	tr := trs[2]
	var stream []byte
	stream = transport.AppendUint32(stream, 9)
	stream = append(stream, frameHello)
	stream = transport.AppendUint32(stream, helloMagic)
	stream = transport.AppendUint32(stream, 0)
	for seq, from := range []int{1, 0} {
		payload, err := transport.EncodePayload(nil, "tcptest", uint64(from))
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		m := transport.Message{From: from, To: 2, Kind: "tcptest", Size: 8}
		stream = appendMsgFrame(stream, uint64(seq+1), m, payload)
	}
	client, server := net.Pipe()
	tr.connMu.Lock()
	tr.conns[server] = struct{}{}
	tr.connMu.Unlock()
	tr.wg.Add(1)
	go tr.serveConn(server)
	go io.Copy(io.Discard, client) // drain acks
	go func() {
		defer client.Close()
		client.Write(stream)
	}()
	if got := recvT(t, tr, 2); got.From != 0 || got.Payload.(uint64) != 0 {
		t.Fatalf("delivered From=%d payload %v, want sender 0's frame", got.From, got.Payload)
	}
	if got := tr.Diag().DecodeErrors; got != 1 {
		t.Fatalf("DecodeErrors = %d, want 1 (the forged frame)", got)
	}
}
