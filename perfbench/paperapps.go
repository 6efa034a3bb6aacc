package main

import (
	"fmt"
	"time"

	"mixedmem/internal/apps"
	"mixedmem/internal/core"
)

// paper-apps-tcp: the paper's programs on four loopback-TCP peers, closed
// loop (SPMD, time to solution). Fig. 2's barrier solver and Fig. 3's
// handshake solver run on seeded diagonally dominant systems; Fig. 5's lock
// and counter Cholesky run on a seeded sparse SPD matrix. Each solve gets a
// fresh, warmed fleet (the programs' shared variables start from zero), and
// its clock runs from releasing all four processes to the last one
// returning.
//
// TCP, not the simulated fabric: at zero modeled latency on the fabric the
// counter Cholesky runs slower than the lock one, while over real sockets
// the lock round trips dominate and counters win, as the paper reports.

type appsShape struct {
	solveN    int     // linear system size
	pool      int     // distinct seeded systems per solver
	cholPool  int     // distinct seeded Cholesky matrices
	cholN     int     // Cholesky matrix size
	density   float64 // Cholesky generator density
	solvesPer int     // Fig. 2/3 solves per round (each is short)
	tol       float64 // accepted distance from the direct solution
}

// The pools cycle through several seeded inputs, because one input's
// structure (a system's iteration count, a matrix's fill) moves its time by
// more than the run-to-run noise: a run's median then describes the seed's
// input family, not one draw from it.
var appsDefault = appsShape{solveN: 24, pool: 4, cholPool: 8, cholN: 48, density: 0.3, solvesPer: 4, tol: 1e-6}

// appsInputs are the seeded problems and their sequential references.
type appsInputs struct {
	systems  []*apps.LinearSystem
	direct   [][]float64
	chols    []*apps.SparseSPD
	cholRefs [][][]float64
}

func makeAppsInputs(s appsShape, seed int64) (*appsInputs, error) {
	in := &appsInputs{}
	for i := 0; i < s.pool; i++ {
		ls := apps.GenDiagDominant(s.solveN, seed*1000+int64(i))
		x, err := ls.SolveDirect()
		if err != nil {
			return nil, err
		}
		in.systems = append(in.systems, ls)
		in.direct = append(in.direct, x)
	}
	for i := 0; i < s.cholPool; i++ {
		m := apps.GenSparseSPD(s.cholN, s.density, seed*1000+int64(i))
		ref, err := m.CholeskySequential()
		if err != nil {
			return nil, err
		}
		in.chols = append(in.chols, m)
		in.cholRefs = append(in.cholRefs, ref)
	}
	return in, nil
}

// solve is one program run on a fresh fleet.
type solve struct {
	elapsed, setup time.Duration
	problems       []string
	heapMB         float64 // live heap with the fleet still up, when asked for
}

// solveOnce runs one program on a fresh fleet and returns its time to
// solution, the set-up time, and the problems its oracle found.
func solveOnce(rec *layerRec, measureHeap bool, body func(p core.Process) []string) (solve, error) {
	var s solve
	setupStart := time.Now()
	f, err := newTCPFleet(fleetOptions{}, rec)
	if err != nil {
		return s, err
	}
	f.warm()
	s.setup = time.Since(setupStart)
	probs := make([][]string, fleetProcs)
	rt := rec.begin()
	start := time.Now()
	f.run(func(p core.Process) { probs[p.ID()] = body(p) })
	s.elapsed = time.Since(start)
	rec.end(rt)
	if measureHeap {
		s.heapMB = liveHeapMB()
	}
	rec.absorb(f)
	f.close()
	for _, p := range probs {
		s.problems = append(s.problems, p...)
	}
	return s, nil
}

func runPaperApps(ctx runCtx) (*outcome, error) {
	shape := appsDefault
	if ctx.smoke {
		shape.cholN, shape.solvesPer, shape.pool, shape.cholPool = 16, 1, 1, 1
	}
	setupStart := time.Now()
	in, err := makeAppsInputs(shape, ctx.seed)
	if err != nil {
		return nil, err
	}
	inputSetup := time.Since(setupStart)

	out := &outcome{}
	var fig2, fig3, lock, counter, setups, heaps []float64
	iters2 := make([]int, shape.pool)
	iters3 := make([]int, shape.pool)
	run := func(dst *[]float64, heap bool, body func(core.Process) []string) error {
		s, err := solveOnce(ctx.rec, heap, body)
		if err != nil {
			return err
		}
		*dst = append(*dst, float64(s.elapsed)/float64(time.Millisecond))
		setups = append(setups, (s.setup + inputSetup).Seconds())
		if heap {
			heaps = append(heaps, s.heapMB)
		}
		out.attempted++
		if len(s.problems) > 0 {
			out.failed++
			out.problems = append(out.problems, s.problems...)
		}
		return nil
	}
	linear := func(k int, solver func(core.Process, *apps.LinearSystem, apps.SolveOptions) apps.SolveResult, iters []int, name string) func(core.Process) []string {
		ls, want := in.systems[k], in.direct[k]
		return func(p core.Process) []string {
			r := solver(p, ls, apps.SolveOptions{})
			if p.ID() == 0 {
				iters[k] = r.Iters
			}
			if d := apps.MaxAbsDiff(r.X, want); !r.Converged || d > shape.tol {
				return []string{fmt.Sprintf("%s system %d proc %d: converged=%v, %.3g from the direct solution", name, k, p.ID(), r.Converged, d)}
			}
			return nil
		}
	}
	cholesky := func(k int, factor func(core.Process, *apps.SparseSPD, apps.SolveOptions) apps.CholeskyResult, name string) func(core.Process) []string {
		m, ref := in.chols[k], in.cholRefs[k]
		return func(p core.Process) []string {
			r := factor(p, m, apps.SolveOptions{})
			if e := m.FactorError(r.L, ref); e > 1e-12 {
				return []string{fmt.Sprintf("%s matrix %d proc %d: factor error %.3g against the sequential factor", name, k, p.ID(), e)}
			}
			return nil
		}
	}

	stop := time.Now().Add(ctx.seconds)
	round := 0
	for round < 2 || time.Now().Before(stop) {
		for i := 0; i < shape.solvesPer; i++ {
			k := (round*shape.solvesPer + i) % shape.pool
			if err := run(&fig2, false, linear(k, apps.SolveBarrier, iters2, "fig2")); err != nil {
				return nil, err
			}
			if err := run(&fig3, false, linear(k, apps.SolveHandshake, iters3, "fig3")); err != nil {
				return nil, err
			}
		}
		k := round % shape.cholPool
		if err := run(&lock, false, cholesky(k, apps.CholeskyLocks, "fig5-lock")); err != nil {
			return nil, err
		}
		// The live heap is read with the counter Cholesky's fleet still up,
		// the largest state any of the four programs holds.
		if err := run(&counter, true, cholesky(k, apps.CholeskyCounters, "fig5-counter")); err != nil {
			return nil, err
		}
		round++
	}
	heap := median(heaps)
	ctx.logf("paper apps: %d rounds, %d fig2/3 solves each, %d Cholesky factorizations each", round, len(fig2), len(lock))

	if ctx.rec != nil {
		for k := range iters2 {
			ctx.rec.fig2Iters += int64(iters2[k])
			ctx.rec.fig3Iters += int64(iters3[k])
		}
	}
	out.ops = out.attempted
	var total float64
	for _, xs := range [][]float64{fig2, fig3, lock, counter} {
		for _, x := range xs {
			total += x
		}
	}
	out.set("setup_s", median(setups), "s")
	out.set("live_heap_mb", heap, "MB")
	out.set("fig2_barrier_ms", median(fig2), "ms")
	out.set("fig3_handshake_ms", median(fig3), "ms")
	out.set("fig5_lock_ms", median(lock), "ms")
	out.set("fig5_counter_ms", median(counter), "ms")
	out.set("solves_per_s", float64(out.attempted)/(total/1e3), "1/s")
	out.fingerprint = appsFingerprint(in)
	out.slots = map[string]float64{
		"setup_s":          out.val("setup_s"),
		"live_heap_mb":     heap,
		"throughput_per_s": out.val("solves_per_s"),
		"latency_1_ms":     out.val("fig2_barrier_ms"),
		"latency_2_ms":     out.val("fig3_handshake_ms"),
		"latency_3_ms":     out.val("fig5_lock_ms"),
		"latency_4_ms":     out.val("fig5_counter_ms"),
	}
	return out, nil
}

// appsFingerprint hashes the generated inputs (FNV-1a over every matrix
// and right-hand-side entry), so two runs can prove they solved the same
// problems.
func appsFingerprint(in *appsInputs) uint64 {
	h := newFNV()
	for _, ls := range in.systems {
		for i := range ls.A {
			h.floats(ls.A[i])
		}
		h.floats(ls.B)
	}
	for _, m := range in.chols {
		for i := range m.A {
			h.floats(m.A[i])
		}
	}
	return h.sum
}
