package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"mixedmem/internal/dsm"
	"mixedmem/internal/hist"
	"mixedmem/internal/obs"
	"mixedmem/internal/transport"
	"mixedmem/internal/transport/tcp"
)

// wireKinds are the message kinds the per-kind transport metrics report:
// everything the dsm and syncmgr layers send under the default (lazy)
// lock propagation. The eager-mode flush kinds never occur here.
var wireKinds = []string{
	"update", "update-batch", "sc-req", "sc-rep",
	"lock-req", "lock-grant", "lock-rel", "bar-arrive", "bar-release",
}

// applyGroups are the receive-loop dispatch classes dsm.apply_ns reports.
// Every synchronization kind (lock, barrier, flush) folds into "sync".
var applyGroups = []string{"update", "update-batch", "sc-req", "sync"}

func applyGroup(kind string) string {
	switch kind {
	case "update", "update-batch", "sc-req":
		return kind
	case "sc-rep":
		return ""
	}
	return "sync"
}

// visSegments are the obs explainer's write-visibility segments, with the
// metric spelling of each.
var visSegments = []string{"issue", "outbox", "wire", "apply", "dep_wait", "wakeup"}

// layerRec accumulates one traced run's per-layer measurements across every
// fleet the run builds. An untraced run has none.
type layerRec struct {
	spans *spanSet
	send  map[string]*hist.Histogram
	wire  map[string]*hist.Histogram
	apply map[string]*hist.Histogram

	net       transport.Stats
	diag      tcp.Diag
	mem       dsm.Stats
	acquires  uint64
	acqWait   time.Duration
	barriers  uint64
	barWait   time.Duration
	late      *hist.Histogram
	traces    []*obs.Snapshot
	fig2Iters int64
	fig3Iters int64

	// rt accumulates the Go runtime's counters over the traced work only.
	rt runtimeSample
}

func newLayerRec() *layerRec {
	return &layerRec{
		spans: newSpanSet(),
		send:  map[string]*hist.Histogram{},
		wire:  map[string]*hist.Histogram{},
		apply: map[string]*hist.Histogram{},
		net:   transport.Stats{PerKind: map[string]uint64{}, PerKindBytes: map[string]uint64{}},
		late:  hist.New(),
	}
}

func mergeInto(dst, src map[string]*hist.Histogram, key func(string) string) {
	for k, h := range src {
		if key != nil {
			k = key(k)
		}
		if k == "" {
			continue
		}
		if dst[k] == nil {
			dst[k] = hist.New()
		}
		dst[k].Merge(h)
	}
}

// absorb folds a fleet's counters and the decorator's histograms into the
// run's totals. Call it once per fleet, after the fleet's last operation.
func (r *layerRec) absorb(f *fleet) {
	if r == nil {
		return
	}
	if f.clock != nil {
		mergeInto(r.send, f.clock.merged(func(n *nodeClock) map[string]*hist.Histogram { return n.send }), nil)
		mergeInto(r.wire, f.clock.merged(func(n *nodeClock) map[string]*hist.Histogram { return n.wire }), nil)
		mergeInto(r.apply, f.clock.merged(func(n *nodeClock) map[string]*hist.Histogram { return n.apply }), applyGroup)
	}
	s := f.netStats()
	for k, v := range s.PerKind {
		r.net.PerKind[k] += v
	}
	for k, v := range s.PerKindBytes {
		r.net.PerKindBytes[k] += v
	}
	d := f.diag()
	r.diag.DialFailures += d.DialFailures
	r.diag.Replayed += d.Replayed
	r.diag.Duplicates += d.Duplicates
	r.diag.DecodeErrors += d.DecodeErrors
	for _, p := range f.raw {
		m := p.MemStats()
		r.mem.BlockedAwait += m.BlockedAwait
		r.mem.BlockedCausalWait += m.BlockedCausalWait
		r.mem.BlockedSC += m.BlockedSC
		r.mem.BlockedInvalidation += m.BlockedInvalidation
		ls, bs := p.LockStats(), p.BarrierStats()
		r.acquires += ls.Acquires
		r.acqWait += ls.AcquireWait
		r.barriers += bs.Barriers
		r.barWait += bs.Wait
	}
}

// begin and end bracket traced work: the runtime's allocation and GC
// counters advance between them, and the difference accumulates.
func (r *layerRec) begin() runtimeSample {
	if r == nil {
		return runtimeSample{}
	}
	return sampleRuntime()
}

func (r *layerRec) end(start runtimeSample) {
	if r == nil {
		return
	}
	now := sampleRuntime()
	r.rt.mallocs += now.mallocs - start.mallocs
	r.rt.bytes += now.bytes - start.bytes
	r.rt.gcCPU += now.gcCPU - start.gcCPU
	r.rt.allCPU += now.allCPU - start.allCPU
}

// runtimeSample is a reading of the Go runtime's allocation and GC CPU
// counters.
type runtimeSample struct {
	mallocs, bytes uint64
	gcCPU, allCPU  float64
}

func sampleRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	out := runtimeSample{mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.allCPU = s[1].Value.Float64()
	}
	return out
}

// perLayerNames lists every per-layer metric in output order. BENCHMARK.json
// lists the same names; a test holds the two equal.
func perLayerNames() []string {
	names := []string{
		"dsm.write_ns.p50", "dsm.write_ns.p99",
		"dsm.read_ns.slow.p99", "dsm.read_ns.pram.p99", "dsm.read_ns.causal.p99",
		"dsm.await_us.p50", "dsm.await_us.p99",
		"dsm.sc_rtt_us.p50", "dsm.sc_rtt_us.p99",
	}
	for _, g := range applyGroups {
		names = append(names, "dsm.apply_ns."+g+".p50")
	}
	names = append(names,
		"dsm.blocked_await_ms", "dsm.blocked_causal_wait_ms",
		"dsm.blocked_sc_ms", "dsm.blocked_invalidation_ms")
	for _, k := range wireKinds {
		names = append(names,
			"transport.send_ns."+k+".p50",
			"transport.wire_us."+k+".p50", "transport.wire_us."+k+".p99",
			"transport.msgs_per_op."+k, "transport.bytes_per_op."+k)
	}
	names = append(names,
		"syncmgr.acquire_wait_us", "syncmgr.acquires", "syncmgr.barrier_wait_us",
		"apps.fig2_iters", "apps.fig3_iters",
		"loadgen.late_us.p99",
		"tcp.replayed", "tcp.duplicates", "tcp.decode_errors", "tcp.dial_failures")
	for _, s := range visSegments {
		names = append(names, "obs.vis."+s+"_us.p50")
	}
	names = append(names, "go.allocs_per_op", "go.bytes_per_op", "go.gc_cpu_frac")
	for _, m := range endToEnd {
		names = append(names, "trace.overhead."+m.name)
	}
	return names
}

// unitOf derives a per-layer metric's unit from its name. A tracing
// overhead carries the unit of the end-to-end metric it is the overhead of.
func unitOf(name string) string {
	if m, ok := strings.CutPrefix(name, "trace.overhead."); ok {
		for _, e := range endToEnd {
			if e.name == m {
				return e.unit
			}
		}
	}
	switch {
	case strings.Contains(name, "_ns"):
		return "ns"
	case strings.Contains(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.Contains(name, "bytes_per_op"):
		return "bytes/op"
	case strings.Contains(name, "per_op"):
		return "1/op"
	case strings.HasSuffix(name, "_frac"):
		return "fraction"
	}
	return "count"
}

// quantileOrZero reports a histogram quantile in the given unit, or 0 when
// fewer than ten samples lie beyond it (too few to resolve it).
func quantileOrZero(h *hist.Histogram, q float64, unit time.Duration) float64 {
	if h.Count() == 0 || !tailOK(int(h.Count()), q) {
		return 0
	}
	return float64(h.Quantile(q)) / float64(unit)
}

// perLayer renders the accumulated measurements as the per-layer metric
// map. ops is the workload's operation count (requests, solves or memory
// operations) that the per-op ratios divide by; overhead holds the traced
// minus untraced end-to-end values.
func (r *layerRec) perLayer(ops int64, overhead map[string]float64) map[string]float64 {
	out := map[string]float64{}
	set := func(name string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[name] = v
	}
	w := r.spans.get(spanWrite)
	set("dsm.write_ns.p50", quantileOrZero(w, 0.5, time.Nanosecond))
	set("dsm.write_ns.p99", quantileOrZero(w, 0.99, time.Nanosecond))
	set("dsm.read_ns.slow.p99", quantileOrZero(r.spans.get(spanReadSlow), 0.99, time.Nanosecond))
	set("dsm.read_ns.pram.p99", quantileOrZero(r.spans.get(spanReadPRAM), 0.99, time.Nanosecond))
	set("dsm.read_ns.causal.p99", quantileOrZero(r.spans.get(spanReadCausal), 0.99, time.Nanosecond))
	a := r.spans.get(spanAwait)
	set("dsm.await_us.p50", quantileOrZero(a, 0.5, time.Microsecond))
	set("dsm.await_us.p99", quantileOrZero(a, 0.99, time.Microsecond))
	sc := r.spans.get(spanSC)
	set("dsm.sc_rtt_us.p50", quantileOrZero(sc, 0.5, time.Microsecond))
	set("dsm.sc_rtt_us.p99", quantileOrZero(sc, 0.99, time.Microsecond))
	for _, g := range applyGroups {
		set("dsm.apply_ns."+g+".p50", quantileOrZero(orEmpty(r.apply[g]), 0.5, time.Nanosecond))
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	set("dsm.blocked_await_ms", ms(r.mem.BlockedAwait))
	set("dsm.blocked_causal_wait_ms", ms(r.mem.BlockedCausalWait))
	set("dsm.blocked_sc_ms", ms(r.mem.BlockedSC))
	set("dsm.blocked_invalidation_ms", ms(r.mem.BlockedInvalidation))
	perOp := func(v uint64) float64 {
		if ops <= 0 {
			return 0
		}
		return float64(v) / float64(ops)
	}
	for _, k := range wireKinds {
		set("transport.send_ns."+k+".p50", quantileOrZero(orEmpty(r.send[k]), 0.5, time.Nanosecond))
		set("transport.wire_us."+k+".p50", quantileOrZero(orEmpty(r.wire[k]), 0.5, time.Microsecond))
		set("transport.wire_us."+k+".p99", quantileOrZero(orEmpty(r.wire[k]), 0.99, time.Microsecond))
		set("transport.msgs_per_op."+k, perOp(r.net.PerKind[k]))
		set("transport.bytes_per_op."+k, perOp(r.net.PerKindBytes[k]))
	}
	us := func(d time.Duration, n uint64) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / float64(n) / float64(time.Microsecond)
	}
	set("syncmgr.acquire_wait_us", us(r.acqWait, r.acquires))
	set("syncmgr.acquires", float64(r.acquires))
	set("syncmgr.barrier_wait_us", us(r.barWait, r.barriers))
	set("apps.fig2_iters", float64(r.fig2Iters))
	set("apps.fig3_iters", float64(r.fig3Iters))
	set("loadgen.late_us.p99", quantileOrZero(r.late, 0.99, time.Microsecond))
	set("tcp.replayed", float64(r.diag.Replayed))
	set("tcp.duplicates", float64(r.diag.Duplicates))
	set("tcp.decode_errors", float64(r.diag.DecodeErrors))
	set("tcp.dial_failures", float64(r.diag.DialFailures))

	var seg [obs.NumSegments]time.Duration
	if len(r.traces) > 0 {
		ex := obs.Explain(r.traces, isVisFlag)
		for _, b := range ex.Breakdowns {
			if b.Samples-b.Incomplete > 0 {
				seg = b.SegP50
			}
		}
	}
	for i, s := range visSegments {
		set("obs.vis."+s+"_us.p50", float64(seg[i])/float64(time.Microsecond))
	}

	set("go.allocs_per_op", perOp(r.rt.mallocs))
	set("go.bytes_per_op", perOp(r.rt.bytes))
	if r.rt.allCPU > 0 {
		set("go.gc_cpu_frac", r.rt.gcCPU/r.rt.allCPU)
	} else {
		set("go.gc_cpu_frac", 0)
	}
	for _, m := range endToEnd {
		set("trace.overhead."+m.name, overhead[m.name])
	}
	return out
}

func orEmpty(h *hist.Histogram) *hist.Histogram {
	if h == nil {
		return hist.New()
	}
	return h
}
