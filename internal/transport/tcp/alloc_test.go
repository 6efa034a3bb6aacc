package tcp

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"mixedmem/internal/transport"
)

// TestAppendMsgFrameAllocFree pins the frame encoder at zero allocations:
// push encodes every outgoing message into the peer's arena chunk with
// appendMsgFrame, and the writer goroutine ships those frames through
// net.Buffers without copying, so a single stray allocation here would be
// paid once per message on every connection.
func TestAppendMsgFrameAllocFree(t *testing.T) {
	m := transport.Message{From: 0, To: 1, Kind: "dsm.update", Size: 64}
	payload := make([]byte, 64)
	buf := make([]byte, 0, 256) // room for the frame, as a chunk has
	allocs := testing.AllocsPerRun(500, func() {
		frame := appendMsgFrame(buf[:0], 42, m, payload)
		if len(frame) != msgFrameLen(m, payload) {
			t.Fatalf("frame is %d bytes, msgFrameLen says %d", len(frame), msgFrameLen(m, payload))
		}
	})
	if allocs > 0 {
		t.Errorf("appendMsgFrame into warm buffer: %.3f allocs/op, want 0", allocs)
	}
}

// TestReadFrameAllocFree pins the frame reader at zero allocations per
// frame once the caller's buffer is large enough.
func TestReadFrameAllocFree(t *testing.T) {
	m := transport.Message{From: 0, To: 1, Kind: "dsm.update", Size: 64}
	frame := appendMsgFrame(nil, 1, m, make([]byte, 64))
	stream := bytes.Repeat(frame, 600)
	br := bufio.NewReader(bytes.NewReader(stream))
	body := make([]byte, 0, 512)
	allocs := testing.AllocsPerRun(500, func() {
		var err error
		if body, err = readFrame(br, body); err != nil {
			t.Fatalf("readFrame: %v", err)
		}
	})
	if allocs > 0 {
		t.Errorf("readFrame into warm buffer: %.3f allocs/op, want 0", allocs)
	}
}

// ackingReceiver accepts one channel on ln and plays a minimal receiver: it
// reads frames into one reused buffer, without decoding them, and acks
// cumulatively after every ackEvery frames and at every multiple of burst,
// so a burst of that many frames ends fully acked. It allocates nothing per
// frame, which leaves the sender as the only source of per-frame garbage.
func ackingReceiver(ln net.Listener, burst uint64) {
	conn, err := ln.Accept()
	if err != nil {
		return
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	prefix := make([]byte, 4)
	body := make([]byte, 512)
	ack := make([]byte, 13)
	binary.BigEndian.PutUint32(ack, 9)
	ack[4] = frameAck
	var got uint64
	for {
		if _, err := io.ReadFull(br, prefix); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(prefix)
		if int(n) > len(body) {
			body = make([]byte, n)
		}
		if _, err := io.ReadFull(br, body[:n]); err != nil {
			return
		}
		if n == 0 || body[0] != frameMsg {
			continue
		}
		got++
		if got%ackEvery == 0 || got%burst == 0 {
			binary.BigEndian.PutUint64(ack[5:], got)
			if _, err := conn.Write(ack); err != nil {
				return
			}
		}
	}
}

// TestPushArenaAllocsPerFrame pushes bursts of 1000 frames through a live
// receiver that acks every 256 and pins the sender's allocations per frame.
// Frames are carved from 4 KiB arena chunks, so a 107-byte frame costs
// about 1/38 of an allocation; a frame allocated on its own costs 1.
func TestPushArenaAllocsPerFrame(t *testing.T) {
	const burst = 1000
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ackingReceiver(ln, burst)
	tr, err := New(Config{ID: 0, Peers: []string{"127.0.0.1:0", ln.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		tr.Close()
		ln.Close()
	})
	p := tr.peers[1]
	m := transport.Message{From: 0, To: 1, Kind: "dsm.update", Size: 64}
	payload := make([]byte, 64)
	var sent uint64
	run := func() {
		for i := 0; i < burst; i++ {
			p.push(m, payload)
		}
		sent += burst
		p.mu.Lock()
		for p.base < sent {
			p.acked.Wait()
		}
		p.mu.Unlock()
	}
	const runs = 4
	done := make(chan float64, 1)
	go func() {
		run() // dial, and grow the replay buffer to its working size
		done <- testing.AllocsPerRun(runs, run) / burst
	}()
	select {
	case perFrame := <-done:
		t.Logf("%.4f allocs per frame", perFrame)
		if perFrame > 0.05 {
			t.Errorf("push: %.4f allocs per frame, want <= 0.05", perFrame)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("bursts were never fully acked")
	}
}

// TestFlushLeavesNoFramesAndOneChunk checks that acked frames are let go:
// once Flush returns and the writer is idle, neither the replay buffer nor
// the writer's scratch holds a frame, so the only chunk the peer keeps alive
// is the one push is filling.
func TestFlushLeavesNoFramesAndOneChunk(t *testing.T) {
	trs := newLoopbackT(t, 2)
	const total = 1000
	for i := 0; i < total; i++ {
		sendT(t, trs[0], 0, 1, uint64(i))
	}
	for i := 0; i < total; i++ {
		recvT(t, trs[1], 1)
	}
	if !trs[0].Flush(10 * time.Second) {
		t.Fatal("Flush timed out with a live peer")
	}
	p := trs[0].peers[1]
	deadline := time.Now().Add(10 * time.Second)
	for {
		p.mu.Lock()
		idle := len(p.wbatch) == 0
		if idle {
			defer p.mu.Unlock()
			break
		}
		p.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatal("writer never went idle")
		}
		time.Sleep(time.Millisecond)
	}
	if len(p.buf) != 0 {
		t.Fatalf("%d frames still buffered after Flush", len(p.buf))
	}
	for i, f := range p.buf[:cap(p.buf)] {
		if f != nil {
			t.Fatalf("replay buffer slot %d still holds an acked frame", i)
		}
	}
	for i, f := range p.wbatch[:cap(p.wbatch)] {
		if f != nil {
			t.Fatalf("writer scratch slot %d still holds a written frame", i)
		}
	}
	if cap(p.chunk) != frameChunk {
		t.Fatalf("current chunk has capacity %d, want %d", cap(p.chunk), frameChunk)
	}
}
