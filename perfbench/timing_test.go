package main

import (
	"reflect"
	"testing"
	"time"

	"mixedmem/internal/core"
	"mixedmem/internal/hist"
	"mixedmem/internal/network"
	"mixedmem/internal/transport"
)

// TestTimedTransportTransparent runs the same seeded lattice round
// (unbatched, so every count is a pure function of the program) on the
// zero-latency fabric with and without the timing decorator: per-kind
// message and byte counts must be identical.
func TestTimedTransportTransparent(t *testing.T) {
	s := latticeShape{perLabel: 8, scLocs: 2, opsPerNode: 3000, scFrac: 0.05, writeFrac: 0.5}
	count := func(rec *layerRec) transport.Stats {
		f, err := newSimFleet(fleetOptions{labels: s.labels()}, rec, 7)
		if err != nil {
			t.Fatal(err)
		}
		defer f.close()
		f.warm()
		nodes := make([]*latticeNode, fleetProcs)
		f.run(func(p core.Process) { nodes[p.ID()] = runLatticeNode(p, s, 7, 0) })
		if probs := checkConvergence(f, s, nodes); len(probs) > 0 {
			t.Fatalf("convergence: %v", probs)
		}
		return f.netStats()
	}
	plain := count(nil)
	timed := count(newLayerRec())
	if !reflect.DeepEqual(plain.PerKind, timed.PerKind) {
		t.Errorf("per-kind messages differ:\nplain %v\ntimed %v", plain.PerKind, timed.PerKind)
	}
	if !reflect.DeepEqual(plain.PerKindBytes, timed.PerKindBytes) {
		t.Errorf("per-kind bytes differ:\nplain %v\ntimed %v", plain.PerKindBytes, timed.PerKindBytes)
	}
	if plain.PerKind["sc-req"] == 0 || plain.PerKind["update"] == 0 {
		t.Errorf("run sent no SC requests or updates: %v", plain.PerKind)
	}
}

// TestWireMatchingByOrdinal scripts a two-node exchange with known gaps and
// checks that each message's wire time is charged to the right send, and
// each apply gap to the right kind.
func TestWireMatchingByOrdinal(t *testing.T) {
	fab, err := network.New(network.Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	clock := newWireClock(2)
	tr := newTimedTransport(fab, clock)
	defer tr.Close()

	const gap = 20 * time.Millisecond
	send := func(from, to int, kind string) {
		if err := tr.Send(transport.Message{From: from, To: to, Kind: kind}); err != nil {
			t.Fatal(err)
		}
	}
	recv := func(node int, want string) {
		m, ok := tr.Recv(node)
		if !ok || m.Kind != want {
			t.Fatalf("node %d received %q (ok %v), want %q", node, m.Kind, ok, want)
		}
	}
	// "early" waits in the channel for one gap, "late" for two. Matching
	// by anything but ordinal would swap or merge the two.
	send(0, 1, "early")
	time.Sleep(gap)
	send(0, 1, "late")
	recv(1, "early")
	send(1, 0, "back")
	time.Sleep(2 * gap) // the receive loop "applies" early for two gaps
	recv(1, "late")
	recv(0, "back")
	// A broadcast from 1 reaches node 0 on the same (1, 0) pair.
	if err := tr.Broadcast(1, "bcast", nil, 0); err != nil {
		t.Fatal(err)
	}
	recv(0, "bcast")

	wire := clock.merged(func(n *nodeClock) map[string]*hist.Histogram { return n.wire })
	apply := clock.merged(func(n *nodeClock) map[string]*hist.Histogram { return n.apply })
	for _, k := range []string{"early", "late", "back", "bcast"} {
		if wire[k] == nil || wire[k].Count() != 1 {
			t.Fatalf("kind %s: want exactly one wire sample, have %v", k, wire[k])
		}
	}
	at := func(h *hist.Histogram) time.Duration { return time.Duration(h.Quantile(0.5)) }
	// Histogram buckets are within about 3% of the recorded value.
	lo := func(d time.Duration) time.Duration { return d * 95 / 100 }
	if w := at(wire["early"]); w < lo(gap) || w >= at(wire["late"]) {
		t.Errorf("early wire %v: want at least %v and below late's %v", w, gap, at(wire["late"]))
	}
	if w := at(wire["late"]); w < lo(2*gap) {
		t.Errorf("late wire %v: want at least %v", w, 2*gap)
	}
	if w := at(wire["back"]); w < lo(2*gap) {
		t.Errorf("back wire %v: want at least %v", w, 2*gap)
	}
	if a := apply["early"]; a == nil || at(a) < lo(2*gap) {
		t.Errorf("early apply gap %v: want at least %v", a, 2*gap)
	}
}
