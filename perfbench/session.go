package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"mixedmem/internal/apps"
	"mixedmem/internal/core"
	"mixedmem/internal/loadgen"
)

// session-tcp: the S1 session/KV traffic on four loopback-TCP peers in the
// hybrid placement, driven open loop.
//
// The placement, location layout and request streams are exactly those of
// apps.ServeSessions (sessions are causal scopes with one follower each,
// aggregates are PRAM-elided counters, visibility probes are one-shot
// awaited flags), so apps.SessionScope, apps.VerifySessionCounters and
// SessionConfig.WorkloadFingerprint apply unchanged. The driver is the
// benchmark's own because ServeSessions starts each request's clock when it
// is issued, not when it was due: a stall then hides the wait it imposes
// on every request queued behind it (coordinated omission). Here every
// request is timed from its due time. Each visibility probe publishes the
// issue time of the write it marks, and the generator's lateness in
// issuing that write is added back, so visibility too counts from the due
// time.
//
// Load comes from at most GOMAXPROCS generator goroutines in total. Each
// owns a fixed subset of the fleet's request strands and issues their
// merged Poisson schedules in due-time order, so every strand's program
// order is preserved.

// sessionShape is the request mix and key space. The rate fields are
// fleet-wide requests per second.
type sessionShape struct {
	workers     int // request strands per process
	sessions    int
	sessionKeys int
	nominal     float64
	ladder      []float64 // rungs above nominal, ascending
	sloP99      time.Duration
	warmup      time.Duration
}

var sessionDefault = sessionShape{
	workers: 2, sessions: 4, sessionKeys: 8,
	nominal: 4000,
	ladder:  []float64{12000, 16000, 20000, 24000, 28000, 32000, 36000, 40000, 44000, 48000, 52000, 56000},
	sloP99:  50 * time.Millisecond,
	warmup:  250 * time.Millisecond,
}

// config is the apps.SessionConfig of one phase: rate is fleet-wide,
// measured is the measured duration.
func (s sessionShape) config(seed int64, rate float64, measured time.Duration) apps.SessionConfig {
	strands := float64(fleetProcs * s.workers)
	perStrand := rate / strands
	return apps.SessionConfig{
		Procs: fleetProcs, Workers: s.workers,
		Sessions: s.sessions, SessionKeys: s.sessionKeys,
		Ops:          int(perStrand * measured.Seconds()),
		Warmup:       int(perStrand * s.warmup.Seconds()),
		ReadFraction: 0.5, ZipfS: 0.9,
		Rate:      perStrand,
		AggGroups: 8, AggEvery: 4, AggReadEvery: 8, VisEvery: 4,
		Seed: seed,
		Mode: apps.SessionHybrid,
	}.WithDefaults()
}

// Location layout of apps.ServeSessions.
func sessLoc(sid, key int) string {
	return "sess/" + strconv.Itoa(sid) + "/k" + strconv.Itoa(key)
}
func visTimeLoc(proc, worker, flag int) string {
	return apps.VisLocPrefix + strconv.Itoa(proc) + "/" + strconv.Itoa(worker) + "/t" + strconv.Itoa(flag)
}
func visFlagLoc(proc, worker, flag int) string {
	return apps.VisLocPrefix + strconv.Itoa(proc) + "/" + strconv.Itoa(worker) + "/f" + strconv.Itoa(flag)
}
func aggHitsLoc(group int) string { return "agg/hits/" + strconv.Itoa(group) }

const aggActiveLoc = "agg/active"

var isVisFlag = apps.IsVisFlagLoc

// layout holds every location name one phase touches. It is built during
// set-up, so the driver allocates nothing per request and its own garbage
// does not add collector work to the system under test.
type layout struct {
	sess       [][]string // [session id][key]
	agg        []string
	visT, visF [][]string // [strand][flag]
	plans      [][]int    // [strand] flag -> follower
	probes     [][]int    // [strand] flag -> session key index, sid*keys+key
}

func newLayout(c apps.SessionConfig) *layout {
	l := &layout{}
	for sid := 0; sid < c.Procs*c.Sessions; sid++ {
		keys := make([]string, c.SessionKeys)
		for k := range keys {
			keys[k] = sessLoc(sid, k)
		}
		l.sess = append(l.sess, keys)
	}
	for g := 0; g < c.AggGroups; g++ {
		l.agg = append(l.agg, aggHitsLoc(g))
	}
	for p := 0; p < c.Procs; p++ {
		for w := 0; w < c.Workers; w++ {
			plan := c.FlagPlan(p, w)
			t := make([]string, len(plan))
			f := make([]string, len(plan))
			follower := make([]int, len(plan))
			key := make([]int, len(plan))
			for k, probe := range plan {
				t[k], f[k] = visTimeLoc(p, w, k), visFlagLoc(p, w, k)
				follower[k] = probe.Follower
				key[k] = (p*c.Sessions+probe.Session)*c.SessionKeys + probe.Key
			}
			l.visT, l.visF = append(l.visT, t), append(l.visF, f)
			l.plans, l.probes = append(l.plans, follower), append(l.probes, key)
		}
	}
	return l
}

// strandConfig is strand (proc, worker)'s request stream, the same stream
// apps.ServeSessions replays for it.
func strandConfig(c apps.SessionConfig, proc, worker int) loadgen.Config {
	return loadgen.Config{
		Keys: c.Sessions * c.SessionKeys, ZipfS: c.ZipfS,
		ReadFraction: c.ReadFraction, Seed: c.Seed,
		Worker: proc*c.Workers + worker, Rate: c.Rate,
	}
}

// driverFingerprint hashes the streams this driver issues, combined as
// SessionConfig.WorkloadFingerprint combines them. The two must agree: that
// proves the driver issues the workload the placement and the counter
// oracle were derived from.
func driverFingerprint(c apps.SessionConfig) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for p := 0; p < c.Procs; p++ {
		for w := 0; w < c.Workers; w++ {
			h = (h ^ loadgen.Fingerprint(strandConfig(c, p, w), c.Warmup+c.Ops)) * prime
		}
	}
	return h
}

// sample is one latency (ns) with the due time of the request it belongs
// to, as an offset (ns) from the end of the phase's warmup.
type sample struct{ at, lat int64 }

// phaseLen bounds one nominal-rate phase.
const phaseLen = 1500 * time.Millisecond

// phaseResult is one open-loop phase at one offered rate.
type phaseResult struct {
	vis, write, read   []sample // latency from due time, measured requests only
	late               []sample // generator lateness
	writeSvc, readSvc  []sample // service time: latency from issue, not from due
	addSvc             []sample // service time of the aggregate counter increments
	requests, failures int64
	setup              time.Duration
	liveHeap           float64
	problems           []string
}

// strand is one request stream's driver state.
type strand struct {
	proc, worker int
	id           int64
	gen          *loadgen.Gen
	req          loadgen.Request
	i            int
	writes       int
	flags        int
}

// sleepUntil waits for the due time. Go timers on Linux round short sleeps
// up to about a millisecond, which would make every request late by that
// much, so waits use nanosleep, cut short by its usual overshoot (the
// kernel's timer slack, about 50us).
func sleepUntil(due time.Time) {
	const slack = 50 * time.Microsecond
	d := time.Until(due)
	if d <= slack {
		return
	}
	ts := syscall.NsecToTimespec(int64(d - slack))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// runSessionPhase builds a fleet, drives one open-loop phase at the given
// fleet-wide rate, verifies the aggregates and closes the fleet.
func runSessionPhase(shape sessionShape, seed int64, rate float64, measured time.Duration, rec *layerRec, keepHeap bool) (phaseResult, error) {
	c := shape.config(seed, rate, measured)
	var res phaseResult

	setupStart := time.Now()
	lay := newLayout(c)
	opt := fleetOptions{scope: apps.SessionScope(c)}
	if rec != nil {
		opt.traceCap = 1 << 16
	}
	f, err := newTCPFleet(opt, rec)
	if err != nil {
		return res, err
	}
	f.warm()
	res.setup = time.Since(setupStart)
	rt := rec.begin()

	if fp, want := driverFingerprint(c), c.WorkloadFingerprint(); fp != want {
		res.problems = append(res.problems, fmt.Sprintf("driver fingerprint %x != workload fingerprint %x", fp, want))
	}

	gens := runtime.GOMAXPROCS(0)
	nStrands := fleetProcs * c.Workers
	if gens > nStrands {
		gens = nStrands
	}
	var mu sync.Mutex
	var wg sync.WaitGroup

	base := time.Now().Add(time.Millisecond)
	measuredFrom := base.Add(shape.warmup).UnixNano()

	// seen[s][k] is flag k of strand s as its prober saw it: the flagged
	// write's issue time and its visibility latency from issue. lag[s][k]
	// is how late the generator issued that write. Each entry has one
	// writer, and both are read only after every goroutine has finished.
	seen := make([][]sample, len(lay.plans))
	lag := make([][]int64, len(lay.plans))
	for s := range seen {
		seen[s] = make([]sample, len(lay.plans[s]))
		lag[s] = make([]int64, len(lay.plans[s]))
	}

	// Probers: on every process, one per watched strand of another process
	// that has flags addressed here. They block in Await; they generate no
	// load.
	for me := 0; me < fleetProcs; me++ {
		for watched := 0; watched < fleetProcs; watched++ {
			if watched == me {
				continue
			}
			for w := 0; w < c.Workers; w++ {
				s := watched*c.Workers + w
				wg.Add(1)
				go func(p core.Process) {
					defer wg.Done()
					for k, follower := range lay.plans[s] {
						if follower != p.ID() {
							continue
						}
						p.Await(lay.visF[s][k], int64(k+1))
						issued := p.ReadCausal(lay.visT[s][k])
						seen[s][k] = sample{issued - measuredFrom, time.Now().UnixNano() - issued}
						key := lay.probes[s][k]
						p.ReadCausal(lay.sess[key/c.SessionKeys][key%c.SessionKeys])
					}
				}(f.procs[me])
			}
		}
	}

	total := c.Warmup + c.Ops
	var gwg sync.WaitGroup
	for g := 0; g < gens; g++ {
		var mine []*strand
		for s := g; s < nStrands; s += gens {
			st := &strand{proc: s / c.Workers, worker: s % c.Workers, id: int64(s)}
			st.gen = loadgen.New(strandConfig(c, st.proc, st.worker))
			st.req = st.gen.Next()
			mine = append(mine, st)
		}
		gwg.Add(1)
		go func() {
			defer gwg.Done()
			n := total * len(mine)
			write, read, late := make([]sample, 0, n), make([]sample, 0, n), make([]sample, 0, n)
			writeSvc, readSvc, addSvc := make([]sample, 0, n), make([]sample, 0, n), make([]sample, 0, n)
			for _, st := range mine {
				f.procs[st.proc].Add(aggActiveLoc, 1)
			}
			for {
				var next *strand
				for _, st := range mine {
					if st.i < total && (next == nil || st.req.Arrival < next.req.Arrival) {
						next = st
					}
				}
				if next == nil {
					break
				}
				due := base.Add(next.req.Arrival)
				sleepUntil(due)
				now := time.Now()
				lag0 := int64(now.Sub(due))
				if lag0 < 0 {
					lag0 = 0
				}
				r := issueRequest(f.procs[next.proc], c, lay, next, now, due)
				if r.flag >= 0 {
					lag[next.proc*c.Workers+next.worker][r.flag] = lag0
				}
				if next.i >= c.Warmup {
					at := due.UnixNano() - measuredFrom
					late = append(late, sample{at, lag0})
					if next.req.Op == loadgen.OpWrite {
						write = append(write, sample{at, r.lat})
						writeSvc = append(writeSvc, sample{at, r.lat - lag0})
					} else {
						read = append(read, sample{at, r.lat})
						readSvc = append(readSvc, sample{at, r.lat - lag0})
					}
					if r.add >= 0 {
						addSvc = append(addSvc, sample{at, r.add})
					}
				}
				next.i++
				if next.i < total {
					next.req = next.gen.Next()
				}
			}
			for _, st := range mine {
				f.procs[st.proc].Add(aggActiveLoc, -1)
			}
			mu.Lock()
			res.write = append(res.write, write...)
			res.read = append(res.read, read...)
			res.late = append(res.late, late...)
			res.writeSvc = append(res.writeSvc, writeSvc...)
			res.readSvc = append(res.readSvc, readSvc...)
			res.addSvc = append(res.addSvc, addSvc...)
			mu.Unlock()
		}()
	}
	gwg.Wait()
	wg.Wait()
	// Visibility from the due time is visibility from issue plus the
	// generator's lateness in issuing the flagged write.
	for s := range seen {
		for k, x := range seen[s] {
			res.vis = append(res.vis, sample{x.at, x.lat + lag[s][k]})
		}
	}
	res.requests = int64(total * nStrands)

	// The closing barrier: afterwards every increment is applied
	// everywhere and the counters may be checked against the replay.
	f.run(func(p core.Process) { p.Barrier() })
	rec.end(rt)
	for _, p := range f.raw {
		if err := apps.VerifySessionCounters(p, c); err != nil {
			res.problems = append(res.problems, err.Error())
		}
	}
	if keepHeap {
		res.liveHeap = liveHeapMB()
	}
	if rec != nil {
		for _, x := range res.late {
			rec.late.Record(x.lat)
		}
		rec.traces = f.snapshots(fmt.Sprintf("session@%.0f", rate))
		rec.absorb(f)
	}
	f.close()
	res.failures = int64(len(res.problems))
	return res, nil
}

// issued is what one request did: its latency from the due time, the
// visibility flag it raised (-1 for none), and how long its aggregate
// counter increment took (-1 when it made none).
type issued struct {
	lat  int64
	flag int
	add  int64
}

// issueRequest performs strand st's current request on process p, issued
// at now. It issues exactly the operations apps.ServeSessions issues for the
// same request; the probe's timestamp location carries the issue time.
func issueRequest(p core.Process, c apps.SessionConfig, lay *layout, st *strand, now, due time.Time) issued {
	req := st.req
	sid := st.proc*c.Sessions + req.Key/c.SessionKeys
	loc := lay.sess[sid][req.Key%c.SessionKeys]
	r := issued{flag: -1, add: -1}
	switch req.Op {
	case loadgen.OpRead:
		p.ReadCausal(loc)
		r.lat = int64(time.Since(due))
	case loadgen.OpWrite:
		p.Write(loc, (st.id+1)<<32|int64(st.i+1))
		r.lat = int64(time.Since(due))
		if st.i >= c.Warmup {
			if st.writes%c.VisEvery == 0 {
				s := st.proc*c.Workers + st.worker
				p.Write(lay.visT[s][st.flags], now.UnixNano())
				p.Write(lay.visF[s][st.flags], int64(st.flags+1))
				r.flag = st.flags
				st.flags++
			}
			st.writes++
		}
	}
	if st.i%c.AggEvery == 0 {
		group := (st.proc*c.Sessions*c.SessionKeys + req.Key) % c.AggGroups
		start := time.Now()
		p.Add(lay.agg[group], 1)
		r.add = int64(time.Since(start))
	}
	if st.i%c.AggReadEvery == 0 {
		p.ReadPRAM(lay.agg[st.i/c.AggReadEvery%c.AggGroups])
	}
	return r
}

func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(q*float64(len(xs)) + 0.5)
	if i >= len(xs) {
		i = len(xs) - 1
	}
	if i > 0 {
		i--
	}
	return xs[i]
}

// tailOK reports whether a sample count resolves quantile q: at least ten
// samples must lie beyond it.
func tailOK(n int, q float64) bool { return float64(n)*(1-q) >= 10 }

// sustainedRate is the highest offered rate whose visibility p99 meets the
// SLO with no growing backlog, interpolated between the last rung that
// meets it and the first of two rungs in a row that do not. A lone miss
// followed by a rung that meets the SLO is a stall of the host, not the
// knee, and is passed over. Near saturation the p99 grows about
// exponentially with the rate, so the interpolation is linear in the
// logarithm of the p99. Rungs must be ascending.
func sustainedRate(rates, p99s []float64, ok []bool, slo float64) float64 {
	for i := range rates {
		if ok[i] || (i+1 < len(rates) && ok[i+1]) {
			continue
		}
		if i == 0 {
			return rates[0] * slo / p99s[0]
		}
		lo, hi := p99s[i-1], p99s[i]
		frac := 1.0
		if hi > lo && lo > 0 {
			frac = math.Log(slo/lo) / math.Log(hi/lo)
		}
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		return rates[i-1] + frac*(rates[i]-rates[i-1])
	}
	return rates[len(rates)-1]
}

func runSessionTCP(ctx runCtx) (*outcome, error) {
	shape := sessionDefault
	if ctx.smoke {
		shape.nominal, shape.ladder = 2000, []float64{4000}
		shape.warmup = 50 * time.Millisecond
	}
	// Half the measured time goes to the nominal rate, split into phases of
	// at most phaseLen on fresh fleets. Every visibility probe writes two
	// fresh locations, and the runtime's cost of adding a location grows
	// with the number it already holds, so one long phase would measure its
	// own length. Each ladder rung runs for a sixteenth of the measured
	// time; the ladder stops once two rungs in a row miss the SLO, so only
	// the rungs up to the knee take time.
	nominalPhases := int(ctx.seconds / 2 / phaseLen)
	if nominalPhases < 1 {
		nominalPhases = 1
	}
	nominalDur := ctx.seconds / 2 / time.Duration(nominalPhases)
	stepDur := ctx.seconds / 16

	out := &outcome{}
	// setup_s is the median over the nominal phases, which all build the
	// same fleet. A rung's fleet grows with its rate, and how many rungs run
	// depends on where the knee falls, so rungs are left out.
	var setups []float64
	var nominal phaseResult
	// Percentiles are taken per phase and the median over phases is
	// reported: a collector cycle or a host hiccup that lands in one phase
	// moves that phase's tail, not the run's.
	visP50 := &phaseQuantile{name: "vis_p50_ms", q: 0.5, unit: 1e6, u: "ms", pick: func(p phaseResult) []sample { return p.vis }}
	writeSvcP50 := &phaseQuantile{name: "write_svc_p50_us", q: 0.5, unit: 1e3, u: "us", pick: func(p phaseResult) []sample { return p.writeSvc }}
	perPhase := []*phaseQuantile{
		visP50,
		{name: "vis_p99_ms", q: 0.99, unit: 1e6, u: "ms", pick: func(p phaseResult) []sample { return p.vis }},
		{name: "write_p99_us", q: 0.99, unit: 1e3, u: "us", pick: func(p phaseResult) []sample { return p.write }},
		{name: "read_p99_us", q: 0.99, unit: 1e3, u: "us", pick: func(p phaseResult) []sample { return p.read }},
		{name: "vis_p90_ms", q: 0.90, unit: 1e6, u: "ms", pick: func(p phaseResult) []sample { return p.vis }},
		writeSvcP50,
		{name: "read_svc_p50_us", q: 0.5, unit: 1e3, u: "us", pick: func(p phaseResult) []sample { return p.readSvc }},
		{name: "add_svc_p50_us", q: 0.5, unit: 1e3, u: "us", pick: func(p phaseResult) []sample { return p.addSvc }},
		{name: "late_p99_us", q: 0.99, unit: 1e3, u: "us", pick: func(p phaseResult) []sample { return p.late }},
	}
	fp := newFNV()
	for j := 0; j < nominalPhases; j++ {
		// The per-layer numbers come from the nominal phases only: they
		// describe the load the end-to-end latencies are reported at.
		seed := ctx.seed*64 + int64(j)
		ph, err := runSessionPhase(shape, seed, shape.nominal, nominalDur, ctx.rec, j == nominalPhases-1)
		if err != nil {
			return nil, err
		}
		fp.u64(shape.config(seed, shape.nominal, nominalDur).WorkloadFingerprint())
		for _, q := range perPhase {
			q.add(ph)
		}
		ctx.logf("session phase %d: vis p50 %.3f ms (%d samples), write service p50 %.2f us",
			j, visP50.vals[j], len(ph.vis), writeSvcP50.vals[j])
		setups = append(setups, ph.setup.Seconds())
		out.attempted += ph.requests
		out.failed += ph.failures
		out.problems = append(out.problems, ph.problems...)
		nominal.vis = append(nominal.vis, ph.vis...)
		nominal.late = append(nominal.late, ph.late...)
		nominal.requests += ph.requests
		if j == nominalPhases-1 {
			out.set("live_heap_mb", ph.liveHeap, "MB")
		}
	}

	rungs := append([]float64{shape.nominal}, shape.ladder...)
	p99s := make([]float64, len(rungs))
	oks := make([]bool, len(rungs))
	for i, rate := range rungs {
		ph := nominal
		dur := nominalDur
		if i > 0 {
			var err error
			seed := ctx.seed*64 + 32 + int64(i)
			ph, err = runSessionPhase(shape, seed, rate, stepDur, nil, false)
			if err != nil {
				return nil, err
			}
			dur = stepDur
			out.attempted += ph.requests
			out.failed += ph.failures
			out.problems = append(out.problems, ph.problems...)
		}
		p99 := float64(quantile(lats(ph.vis), 0.99))
		// A growing backlog shows as a generator that is, at the median,
		// late by more than the SLO over the phase's last second.
		lastLate := float64(quantile(lastSecond(ph.late, dur), 0.5))
		p99s[i] = p99
		oks[i] = tailOK(len(ph.vis), 0.99) && p99 <= float64(shape.sloP99) && lastLate <= float64(shape.sloP99)
		ctx.logf("session rung %.0f req/s: vis p50 %.3f p90 %.3f p99 %.3f ms (%d samples), late p50 in the last second %.3f ms, meets SLO %v",
			rate, float64(quantile(lats(ph.vis), 0.5))/1e6, float64(quantile(lats(ph.vis), 0.9))/1e6, p99/1e6, len(ph.vis), lastLate/1e6, oks[i])
		if i > 0 && !oks[i-1] && !oks[i] {
			// Rungs above two misses in a row cannot move sustained_rps.
			rungs, p99s, oks = rungs[:i+1], p99s[:i+1], oks[:i+1]
			break
		}
	}
	out.fingerprint = fp.sum
	out.ops = nominal.requests

	out.set("setup_s", median(setups), "s")
	for _, q := range perPhase {
		v, minN := q.result()
		out.setTail(q.name, v, q.u, minN, q.q)
	}
	// The visibility median of the quietest phase. Visibility crosses idle
	// processors, so when the host is slow to wake them whole phases read
	// up to twice their usual median while service times do not move.
	// That noise only ever adds, and a change to the program's own
	// visibility path moves every phase, the quietest too.
	out.set("vis_p50_min_ms", minOf(visP50.vals), "ms")
	out.set("sustained_rps", sustainedRate(rungs, p99s, oks, float64(shape.sloP99)), "req/s")

	out.slots = map[string]float64{
		"setup_s":          out.val("setup_s"),
		"live_heap_mb":     out.val("live_heap_mb"),
		"throughput_per_s": out.val("sustained_rps"),
		"latency_1_ms":     out.val("vis_p50_min_ms"),
		"latency_2_ms":     out.val("write_svc_p50_us") / 1e3,
		"latency_3_ms":     out.val("read_svc_p50_us") / 1e3,
		"latency_4_ms":     out.val("add_svc_p50_us") / 1e3,
	}
	return out, nil
}

// phaseQuantile collects one percentile per nominal phase.
type phaseQuantile struct {
	name    string
	q, unit float64
	u       string
	pick    func(phaseResult) []sample
	vals    []float64
	minN    int
}

func (p *phaseQuantile) add(ph phaseResult) {
	xs := p.pick(ph)
	p.vals = append(p.vals, float64(quantile(lats(xs), p.q))/p.unit)
	if p.minN == 0 || len(xs) < p.minN {
		p.minN = len(xs)
	}
}

// result is the median over phases and the smallest phase's sample count.
func (p *phaseQuantile) result() (float64, int) { return median(p.vals), p.minN }

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func lats(xs []sample) []int64 {
	out := make([]int64, len(xs))
	for i, x := range xs {
		out[i] = x.lat
	}
	return out
}

// lastSecond returns the latencies of the samples due in the last second
// of a phase of the given measured length.
func lastSecond(xs []sample, measured time.Duration) []int64 {
	from := int64(measured - time.Second)
	var out []int64
	for _, x := range xs {
		if x.at >= from {
			out = append(out, x.lat)
		}
	}
	return out
}
