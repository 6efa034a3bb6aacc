package main

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"mixedmem/internal/core"
	"mixedmem/internal/dsm"
	"mixedmem/internal/history"
	"mixedmem/internal/obs"
	"mixedmem/internal/transport"
	"mixedmem/internal/transport/tcp"
)

// fleetProcs is the fleet size: the paper's four processes, all inside
// this one OS process.
const fleetProcs = 4

// fleetOptions are the runtime settings one fleet is built with. Every
// process of a fleet gets the same ones.
type fleetOptions struct {
	scope  *dsm.ScopeMap
	labels map[string]history.Label
	batch  dsm.BatchConfig
	// traceCap, when positive, turns on the runtime's own event rings
	// (internal/obs), used only by the traced session run.
	traceCap int
}

// fleet is one running system under test: four processes over either
// loopback TCP (one core.Peer each) or the simulated fabric (one
// core.System). In a traced run every process handle is a tracedProc and
// every transport is wrapped in a timedTransport.
type fleet struct {
	procs []core.Process
	raw   []*core.Proc

	peers []*core.Peer
	tcps  []*tcp.Transport
	sys   *core.System

	clock *wireClock
	// nets are the transports whose Stats sum to the fleet's traffic: one
	// per peer on TCP, the shared fabric on the simulator.
	nets []transport.Transport
}

// newTCPFleet builds four peers on kernel-assigned loopback ports. With a
// non-nil rec the fleet is traced.
func newTCPFleet(opt fleetOptions, rec *layerRec) (*fleet, error) {
	trs, err := tcp.NewLoopback(fleetProcs, nil)
	if err != nil {
		return nil, fmt.Errorf("loopback: %w", err)
	}
	f := &fleet{tcps: trs}
	if rec != nil {
		f.clock = newWireClock(fleetProcs)
	}
	for i, tr := range trs {
		var t transport.Transport = tr
		if f.clock != nil {
			t = newTimedTransport(tr, f.clock)
		}
		p, err := core.NewPeer(core.PeerConfig{
			ID: i, Transport: t, Scope: opt.scope, Labels: opt.labels,
			Batch: opt.batch, TraceCapacity: opt.traceCap,
		})
		if err != nil {
			for _, tr := range trs[i:] {
				tr.Close()
			}
			f.close()
			return nil, fmt.Errorf("peer %d: %w", i, err)
		}
		f.peers = append(f.peers, p)
		f.raw = append(f.raw, p.Proc())
		f.nets = append(f.nets, tr)
	}
	f.wrap(opt, rec)
	return f, nil
}

// newSimFleet builds a four-node system on the zero-latency simulated
// fabric.
func newSimFleet(opt fleetOptions, rec *layerRec, seed int64) (*fleet, error) {
	cfg := core.Config{
		Procs: fleetProcs, Seed: seed, Placement: opt.scope, Labels: opt.labels,
		Batch: opt.batch, TraceCapacity: opt.traceCap,
	}
	f := &fleet{}
	if rec != nil {
		fab, err := newZeroLatencyFabric(seed)
		if err != nil {
			return nil, err
		}
		f.clock = newWireClock(fleetProcs)
		cfg.Transport = newTimedTransport(fab, f.clock)
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	f.sys = sys
	for i := 0; i < fleetProcs; i++ {
		f.raw = append(f.raw, sys.Proc(i))
	}
	f.nets = []transport.Transport{sys.Transport()}
	f.wrap(opt, rec)
	return f, nil
}

func (f *fleet) wrap(opt fleetOptions, rec *layerRec) {
	for _, p := range f.raw {
		if rec != nil {
			f.procs = append(f.procs, newTracedProc(p, rec.spans, opt.labels))
		} else {
			f.procs = append(f.procs, p)
		}
	}
}

// run executes body once per process, each on its own goroutine, and waits
// for all of them: the SPMD driver the paper's programs use.
func (f *fleet) run(body func(p core.Process)) {
	var wg sync.WaitGroup
	for _, p := range f.procs {
		wg.Add(1)
		go func(p core.Process) {
			defer wg.Done()
			body(p)
		}(p)
	}
	wg.Wait()
}

// warm makes every process write once and then cross a barrier. The barrier
// waits until every write has reached every peer, so afterwards every link
// of the mesh is connected and the first measured operation pays no dial.
func (f *fleet) warm() {
	f.run(func(p core.Process) {
		p.Write("warm/"+strconv.Itoa(p.ID()), 1)
		p.Barrier()
	})
}

// netStats sums the fleet's per-kind transport accounting.
func (f *fleet) netStats() transport.Stats {
	out := transport.Stats{PerKind: map[string]uint64{}, PerKindBytes: map[string]uint64{}}
	for _, t := range f.nets {
		s := t.Stats()
		for k, v := range s.PerKind {
			out.PerKind[k] += v
		}
		for k, v := range s.PerKindBytes {
			out.PerKindBytes[k] += v
		}
	}
	return out
}

// diag sums the TCP link failure counters (zero on the simulated fabric).
func (f *fleet) diag() tcp.Diag {
	var d tcp.Diag
	for _, t := range f.tcps {
		x := t.Diag()
		d.DialFailures += x.DialFailures
		d.Replayed += x.Replayed
		d.Duplicates += x.Duplicates
		d.DecodeErrors += x.DecodeErrors
	}
	return d
}

// snapshots collects every process's event ring, tagged as one run.
func (f *fleet) snapshots(tag string) []*obs.Snapshot {
	var out []*obs.Snapshot
	for _, p := range f.raw {
		if tr := p.Tracer(); tr != nil {
			s := tr.Snapshot()
			s.Tag = tag
			out = append(out, s)
		}
	}
	return out
}

// close drains the TCP links (so final barrier releases reach every peer)
// and shuts every process down.
func (f *fleet) close() {
	for _, t := range f.tcps {
		t.Flush(2 * time.Second)
	}
	for _, p := range f.peers {
		p.Close()
	}
	if f.sys != nil {
		f.sys.Close()
	}
}
