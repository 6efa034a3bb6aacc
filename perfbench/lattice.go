package main

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"mixedmem/internal/core"
	"mixedmem/internal/dsm"
	"mixedmem/internal/history"
	"mixedmem/internal/network"
)

// lattice-sim: four nodes on the zero-latency simulated fabric with the
// batched outbox on, each running a closed loop of reads and writes over
// locations labeled Slow, PRAM, Causal and SC. It exercises what neither
// TCP workload does: batched broadcast with vector clocks, the SC owner
// round trip, the Slow fast path and the simulated fabric. A round ends
// with a barrier, after which every node must read every location's final
// value (the convergence check); its throughput counts operations until
// that barrier has returned everywhere.
//
// Every Slow, PRAM and Causal location has one writer, its owner, writing
// increasing values, so the final value is known and every node's reads of
// it must never go backwards (all three labels keep per-writer FIFO order).
// SC locations take writes from every node; the oracle is that all nodes
// read the same final value.

type latticeShape struct {
	perLabel   int // Slow, PRAM and Causal locations each
	scLocs     int
	opsPerNode int // per round
	scFrac     float64
	writeFrac  float64
}

var latticeDefault = latticeShape{perLabel: 16, scLocs: 4, opsPerNode: 50000, scFrac: 0.02, writeFrac: 0.5}

var weakLabels = []history.Label{history.LabelSlow, history.LabelPRAM, history.LabelCausal}

func latticeLoc(l history.Label, i int) string {
	switch l {
	case history.LabelSlow:
		return "slow/" + strconv.Itoa(i)
	case history.LabelPRAM:
		return "pram/" + strconv.Itoa(i)
	case history.LabelCausal:
		return "causal/" + strconv.Itoa(i)
	}
	return "sc/" + strconv.Itoa(i)
}

func (s latticeShape) labels() map[string]history.Label {
	m := map[string]history.Label{}
	for _, l := range weakLabels {
		for i := 0; i < s.perLabel; i++ {
			m[latticeLoc(l, i)] = l
		}
	}
	for i := 0; i < s.scLocs; i++ {
		m[latticeLoc(history.LabelSC, i)] = history.LabelSC
	}
	return m
}

func readAt(p core.Process, l history.Label, loc string) int64 {
	switch l {
	case history.LabelSlow:
		return p.ReadSlow(loc)
	case history.LabelPRAM:
		return p.ReadPRAM(loc)
	case history.LabelCausal:
		return p.ReadCausal(loc)
	}
	return p.ReadSC(loc)
}

// latticeNode is one node's share of a round.
type latticeNode struct {
	sc, write, read []int64
	last            map[string]int64 // own locations: last value written
	problems        []string
}

// runLatticeNode is node p's closed loop for one round.
func runLatticeNode(p core.Process, s latticeShape, seed int64, round int) *latticeNode {
	me := p.ID()
	r := newRNG(uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(round)<<20 ^ uint64(me+1))
	res := &latticeNode{last: map[string]int64{}}
	seen := map[string]int64{}
	own := s.perLabel / fleetProcs
	for n := 0; n < s.opsPerNode; n++ {
		if r.float64() < s.scFrac {
			loc := latticeLoc(history.LabelSC, r.intn(s.scLocs))
			start := time.Now()
			if r.float64() < 0.5 {
				p.Write(loc, int64(me+1)<<32|int64(n+1))
			} else {
				p.ReadSC(loc)
			}
			res.sc = append(res.sc, int64(time.Since(start)))
			continue
		}
		l := weakLabels[r.intn(len(weakLabels))]
		if r.float64() < s.writeFrac {
			// Owned locations are me, me+4, me+8, ...
			loc := latticeLoc(l, me+fleetProcs*r.intn(own))
			v := res.last[loc] + 1
			start := time.Now()
			p.Write(loc, v)
			res.write = append(res.write, int64(time.Since(start)))
			res.last[loc] = v
			continue
		}
		loc := latticeLoc(l, r.intn(s.perLabel))
		start := time.Now()
		v := readAt(p, l, loc)
		res.read = append(res.read, int64(time.Since(start)))
		if v < seen[loc] {
			res.problems = append(res.problems, fmt.Sprintf("node %d: %s read %d after %d", me, loc, v, seen[loc]))
		}
		seen[loc] = v
	}
	p.Barrier()
	return res
}

// checkConvergence runs after a round's barrier: every weak location reads
// its owner's last value on every node, and all nodes agree on every SC
// location.
func checkConvergence(f *fleet, s latticeShape, nodes []*latticeNode) []string {
	var probs []string
	for _, l := range weakLabels {
		for i := 0; i < s.perLabel; i++ {
			loc := latticeLoc(l, i)
			want := nodes[i%fleetProcs].last[loc]
			for _, p := range f.procs {
				if got := readAt(p, l, loc); got != want {
					probs = append(probs, fmt.Sprintf("node %d: %s = %d after the barrier, owner wrote %d last", p.ID(), loc, got, want))
				}
			}
		}
	}
	for i := 0; i < s.scLocs; i++ {
		loc := latticeLoc(history.LabelSC, i)
		first := f.procs[0].ReadSC(loc)
		for _, p := range f.procs[1:] {
			if got := p.ReadSC(loc); got != first {
				probs = append(probs, fmt.Sprintf("node %d: SC %s = %d, node 0 reads %d", p.ID(), loc, got, first))
			}
		}
	}
	return probs
}

func newZeroLatencyFabric(seed int64) (*network.Fabric, error) {
	return network.New(network.Config{Nodes: fleetProcs, Seed: seed})
}

func runLatticeSim(ctx runCtx) (*outcome, error) {
	s := latticeDefault
	if ctx.smoke {
		s.opsPerNode = 2000
	}
	labels := s.labels()
	out := &outcome{}
	var setups, rates, scP50, scP90, scP99, wP99, rP99, heaps []float64
	stop := time.Now().Add(ctx.seconds)
	round := 0
	for round < 3 || time.Now().Before(stop) {
		setupStart := time.Now()
		f, err := newSimFleet(fleetOptions{labels: labels, batch: dsm.BatchConfig{Enabled: true}}, ctx.rec, ctx.seed)
		if err != nil {
			return nil, err
		}
		f.warm()
		setups = append(setups, time.Since(setupStart).Seconds())

		nodes := make([]*latticeNode, fleetProcs)
		rt := ctx.rec.begin()
		start := time.Now()
		f.run(func(p core.Process) { nodes[p.ID()] = runLatticeNode(p, s, ctx.seed, round) })
		elapsed := time.Since(start)
		ctx.rec.end(rt)

		probs := checkConvergence(f, s, nodes)
		var sc, w, r []int64
		for _, n := range nodes {
			probs = append(probs, n.problems...)
			sc = append(sc, n.sc...)
			w = append(w, n.write...)
			r = append(r, n.read...)
		}
		ops := int64(fleetProcs * s.opsPerNode)
		out.attempted += ops
		out.ops += ops
		out.failed += int64(len(probs))
		out.problems = append(out.problems, probs...)
		rates = append(rates, float64(ops)/elapsed.Seconds())
		if !tailOK(len(sc), 0.99) {
			out.notes = append(out.notes, fmt.Sprintf("round %d: only %d SC operations, too few to resolve p99", round, len(sc)))
		}
		scP50 = append(scP50, float64(quantile(sc, 0.5)))
		scP90 = append(scP90, float64(quantile(sc, 0.90)))
		scP99 = append(scP99, float64(quantile(sc, 0.99)))
		wP99 = append(wP99, float64(quantile(w, 0.99)))
		rP99 = append(rP99, float64(quantile(r, 0.99)))
		heaps = append(heaps, liveHeapMB())
		ctx.rec.absorb(f)
		f.close()
		round++
	}
	ctx.logf("lattice: %d rounds of %d ops per node", round, s.opsPerNode)

	us := func(xs []float64) float64 { return median(xs) / 1e3 }
	out.set("setup_s", median(setups), "s")
	heap := median(heaps)
	out.set("live_heap_mb", heap, "MB")
	out.set("lattice_ops_per_s", median(rates), "ops/s")
	out.set("sc_p50_us", us(scP50), "us")
	out.set("sc_p90_us", us(scP90), "us")
	out.set("sc_p99_us", us(scP99), "us")
	out.set("write_p99_us", us(wP99), "us")
	out.set("read_p99_us", us(rP99), "us")
	out.fingerprint = latticeFingerprint(s, ctx.seed)
	out.slots = map[string]float64{
		"setup_s":          out.val("setup_s"),
		"live_heap_mb":     heap,
		"throughput_per_s": out.val("lattice_ops_per_s"),
		"latency_1_ms":     out.val("sc_p50_us") / 1e3,
		"latency_2_ms":     out.val("sc_p90_us") / 1e3,
		"latency_3_ms":     out.val("write_p99_us") / 1e3,
		"latency_4_ms":     out.val("read_p99_us") / 1e3,
	}
	return out, nil
}

// latticeFingerprint hashes the random streams that choose the label,
// location and read or write of every node's operations in the first round.
func latticeFingerprint(s latticeShape, seed int64) uint64 {
	h := newFNV()
	for me := 0; me < fleetProcs; me++ {
		r := newRNG(uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(me+1))
		for n := 0; n < s.opsPerNode; n++ {
			h.u64(r.next())
		}
	}
	return h.sum
}

// rng is splitmix64: small, seedable and free of shared state.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float64() float64 { return float64(r.next()>>11) / (1 << 53) }
func (r *rng) intn(n int) int   { return int(r.next() % uint64(n)) }

// fnv is FNV-1a over 64-bit words.
type fnv struct{ sum uint64 }

func newFNV() *fnv { return &fnv{sum: 14695981039346656037} }

func (h *fnv) u64(v uint64) {
	for i := 0; i < 8; i++ {
		h.sum ^= (v >> (8 * i)) & 0xff
		h.sum *= 1099511628211
	}
}

func (h *fnv) floats(xs []float64) {
	for _, x := range xs {
		h.u64(math.Float64bits(x))
	}
}
