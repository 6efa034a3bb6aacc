package dsm

import (
	"fmt"
	"testing"
	"time"

	"mixedmem/internal/network"
	"mixedmem/internal/obs"
	"mixedmem/internal/vclock"
)

// pendingNode builds node 0 of an n-node sim fabric whose other processes
// are phantoms: the tests speak for them by sending hand-built updates, so
// they control exactly which dependencies are met and in what order groups
// arrive.
func pendingNode(tb testing.TB, n int, tr *obs.Tracer) (*Node, *network.Fabric) {
	tb.Helper()
	f, err := network.New(network.Config{Nodes: n})
	if err != nil {
		tb.Fatalf("network.New: %v", err)
	}
	nd, err := NewNode(Config{ID: 0, N: n, Transport: f, Tracer: tr})
	if err != nil {
		tb.Fatalf("NewNode: %v", err)
	}
	tb.Cleanup(func() {
		f.Close()
		nd.Close()
	})
	return nd, f
}

// causalUpdate is sender from's seq-th update, an OpSet of v at loc, whose
// full-broadcast timestamp names seq for the sender and deps[k] for k.
func causalUpdate(n, from int, seq uint64, loc string, v int64, deps map[int]uint64) Update {
	ts := make(vclock.VC, n)
	ts[from] = seq
	for k, d := range deps {
		ts[k] = d
	}
	return Update{From: from, Seq: seq, Op: OpSet, Loc: loc, Value: v, TS: ts}
}

func sendToZero(t *testing.T, f *network.Fabric, from int, payload any, size int) {
	t.Helper()
	kind := KindUpdate
	if _, ok := payload.(UpdateBatch); ok {
		kind = KindUpdateBatch
	}
	if err := f.Send(network.Message{From: from, To: 0, Kind: kind, Payload: payload, Size: size}); err != nil {
		t.Fatalf("Send: %v", err)
	}
}

func sendUpdate(t *testing.T, f *network.Fabric, u Update) {
	t.Helper()
	sendToZero(t, f, u.From, u, u.encodedSize())
}

// waitCausal waits until node 0's causal view has settled min[j] updates
// from every j, failing the test instead of hanging.
func waitCausal(t *testing.T, n *Node, min []uint64) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		n.WaitCausalApplied(min)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("causal view never settled %v", min)
	}
}

// groupEvents tallies one event type per (sender, first seq) and returns the
// release order of each sender's groups.
func groupEvents(tr *obs.Tracer) (count map[obs.EventType]map[[2]uint64]int, released map[uint16][]uint64) {
	count = map[obs.EventType]map[[2]uint64]int{}
	released = map[uint16][]uint64{}
	for _, e := range tr.Snapshot().Events {
		switch e.Type {
		case obs.EvDepWaitBegin, obs.EvDepWaitEnd, obs.EvGroupRelease:
			if count[e.Type] == nil {
				count[e.Type] = map[[2]uint64]int{}
			}
			count[e.Type][[2]uint64{uint64(e.Peer), e.Seq}]++
			if e.Type == obs.EvGroupRelease {
				released[e.Peer] = append(released[e.Peer], e.Seq)
			}
		}
	}
	return count, released
}

func TestPendingOutOfSequenceDeliversInOrder(t *testing.T) {
	tr := obs.NewTracer(0, 1024)
	n, f := pendingNode(t, 2, tr)
	for _, seq := range []uint64{3, 1, 2} {
		sendUpdate(t, f, causalUpdate(2, 1, seq, "x", int64(10*seq), nil))
	}
	waitCausal(t, n, []uint64{0, 3})
	if got := n.causalSnapshotValue("x"); got != 30 {
		t.Errorf("causal x = %d, want 30 (seq 3 applied last)", got)
	}
	if got := n.ReadPRAM("x"); got != 20 {
		t.Errorf("PRAM x = %d, want 20 (receive order)", got)
	}
	count, released := groupEvents(tr)
	if got := fmt.Sprint(released[1]); got != "[1 2 3]" {
		t.Errorf("sender 1 groups released in order %s, want [1 2 3]", got)
	}
	if got := count[obs.EvDepWaitBegin]; len(got) != 1 || got[[2]uint64{1, 3}] != 1 {
		t.Errorf("dep-wait begins %v, want one, for seq 3", got)
	}
}

func TestPendingDuplicateDoesNotWedgeSender(t *testing.T) {
	n, f := pendingNode(t, 2, nil)
	sendUpdate(t, f, causalUpdate(2, 1, 1, "x", 1, nil))
	waitCausal(t, n, []uint64{0, 1})
	// A replay of seq 1 must not park at the head of sender 1's queue,
	// where it would block seq 2 forever.
	sendUpdate(t, f, causalUpdate(2, 1, 1, "x", 1, nil))
	sendUpdate(t, f, causalUpdate(2, 1, 2, "x", 2, nil))
	waitCausal(t, n, []uint64{0, 2})
	if got := n.causalSnapshotValue("x"); got != 2 {
		t.Errorf("causal x = %d, want 2", got)
	}
	if got := n.Stats().MalformedUpdates; got != 1 {
		t.Errorf("MalformedUpdates = %d, want 1 (the duplicate)", got)
	}
}

func TestPendingDeepQueueDoesNotBlockOtherSenders(t *testing.T) {
	const depth = 1000
	tr := obs.NewTracer(0, 1<<14)
	n, f := pendingNode(t, 3, tr)
	// Sender 1's whole stream depends on sender 2's second update.
	for s := uint64(1); s <= depth; s++ {
		sendUpdate(t, f, causalUpdate(3, 1, s, "a", int64(s), map[int]uint64{2: 2}))
	}
	sendUpdate(t, f, causalUpdate(3, 2, 1, "b", 1, nil))
	waitCausal(t, n, []uint64{0, 0, 1})
	if got := n.causalSnapshotValue("b"); got != 1 {
		t.Fatalf("causal b = %d, want 1: sender 2 blocked behind sender 1's queue", got)
	}
	n.clockMu.Lock()
	parked := n.pending[1].len()
	n.clockMu.Unlock()
	if got := n.causalSnapshotValue("a"); got != 0 || parked != depth {
		t.Fatalf("causal a = %d with %d groups parked, want 0 and %d", got, parked, depth)
	}

	sendUpdate(t, f, causalUpdate(3, 2, 2, "b", 2, nil))
	waitCausal(t, n, []uint64{0, depth, 2})
	if got := n.causalSnapshotValue("a"); got != depth {
		t.Errorf("causal a = %d, want %d", got, depth)
	}
	n.clockMu.Lock()
	kept := cap(n.pending[1].groups)
	n.clockMu.Unlock()
	if kept > queueKeep {
		t.Errorf("drained queue keeps room for %d groups, want <= %d", kept, queueKeep)
	}
	_, released := groupEvents(tr)
	if len(released[1]) != depth {
		t.Fatalf("released %d groups from sender 1, want %d", len(released[1]), depth)
	}
	for i, seq := range released[1] {
		if seq != uint64(i+1) {
			t.Fatalf("release %d is seq %d, want %d", i, seq, i+1)
		}
	}
}

func TestPendingDepWaitEventsOncePerParkedGroup(t *testing.T) {
	tr := obs.NewTracer(0, 1024)
	n, f := pendingNode(t, 3, tr)
	// (1,1) waits on (2,2); (1,2) waits behind (1,1); (2,1) and (2,2)
	// deliver on arrival. (2,1)'s drain re-examines (1,1) without releasing
	// it, which must not record a second begin.
	sendUpdate(t, f, causalUpdate(3, 1, 1, "a", 1, map[int]uint64{2: 2}))
	sendUpdate(t, f, causalUpdate(3, 1, 2, "a", 2, nil))
	sendUpdate(t, f, causalUpdate(3, 2, 1, "b", 1, nil))
	sendUpdate(t, f, causalUpdate(3, 2, 2, "b", 2, nil))
	waitCausal(t, n, []uint64{0, 2, 2})

	count, _ := groupEvents(tr)
	for _, g := range [][2]uint64{{1, 1}, {1, 2}, {2, 1}, {2, 2}} {
		wantWait := 0
		if g[0] == 1 {
			wantWait = 1
		}
		if got := count[obs.EvDepWaitBegin][g]; got != wantWait {
			t.Errorf("group %v: %d dep-wait begins, want %d", g, got, wantWait)
		}
		if got := count[obs.EvDepWaitEnd][g]; got != wantWait {
			t.Errorf("group %v: %d dep-wait ends, want %d", g, got, wantWait)
		}
		if got := count[obs.EvGroupRelease][g]; got != 1 {
			t.Errorf("group %v: %d releases, want 1", g, got)
		}
	}
}

// TestHostileSenderIDDropped sends updates and a batch whose sender ID is
// out of range or disagrees with the channel. Every per-sender structure is
// indexed by that ID, so each must be dropped, counted, and leave the
// receive loop serving the next message.
func TestHostileSenderIDDropped(t *testing.T) {
	n, f := pendingNode(t, 2, nil)
	outOfRange := Update{From: 7, Seq: 1, Op: OpSet, Loc: "x", Value: 7, TS: vclock.VC{0, 1}}
	sendToZero(t, f, 1, outOfRange, outOfRange.encodedSize())
	mismatch := causalUpdate(2, 0, 1, "x", 8, nil) // claims node 0 on channel 1
	sendToZero(t, f, 1, mismatch, mismatch.encodedSize())
	batch := UpdateBatch{From: -3, FirstSeq: 1, Count: 2, Updates: []Update{
		{From: -3, Seq: 1, Op: OpSet, Loc: "x", Value: 9},
		{From: -3, Seq: 2, Op: OpSet, Loc: "x", Value: 10},
	}}
	sendToZero(t, f, 1, batch, batch.encodedSize())

	sendUpdate(t, f, causalUpdate(2, 1, 1, "x", 1, nil))
	waitCausal(t, n, []uint64{0, 1})
	if got := n.causalSnapshotValue("x"); got != 1 {
		t.Errorf("causal x = %d, want 1", got)
	}
	if got := n.ReadPRAM("x"); got != 1 {
		t.Errorf("PRAM x = %d, want 1: a hostile update was applied", got)
	}
	if got := n.Stats().MalformedUpdates; got != 4 {
		t.Errorf("MalformedUpdates = %d, want 4 (two updates, a two-entry batch)", got)
	}
}

// BenchmarkApplyRemoteDeepPending applies a deliverable update from one
// sender while depth groups from another sit parked behind a missing
// dependency. The drain looks only at queue heads, so ns/op should not grow
// with depth, and a warm apply allocates nothing.
func BenchmarkApplyRemoteDeepPending(b *testing.B) {
	for _, depth := range []int{0, 64, 1024} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			n, _ := pendingNode(b, 4, nil)
			for s := 1; s <= depth; s++ {
				n.applyRemote(causalUpdate(4, 1, uint64(s), "parked", int64(s), map[int]uint64{2: 1}))
			}
			u := causalUpdate(4, 3, 1, "hot", 1, nil)
			n.applyRemote(u) // warm the cell and sender 3's queue
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u.Seq++
				u.TS[3] = u.Seq
				u.Value = int64(u.Seq)
				n.applyRemote(u)
			}
		})
	}
}
