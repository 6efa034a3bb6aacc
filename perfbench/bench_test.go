package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"sort"
	"testing"
	"time"
)

// TestWorkloadFingerprints: the same seed generates the same workload, a
// different seed a different one, for every workload.
func TestWorkloadFingerprints(t *testing.T) {
	session := func(seed int64) uint64 {
		c := sessionDefault.config(seed, sessionDefault.nominal, time.Second)
		if got, want := driverFingerprint(c), c.WorkloadFingerprint(); got != want {
			t.Fatalf("seed %d: driver streams %x differ from the session workload %x", seed, got, want)
		}
		return c.WorkloadFingerprint()
	}
	paper := func(seed int64) uint64 {
		in, err := makeAppsInputs(appsDefault, seed)
		if err != nil {
			t.Fatal(err)
		}
		return appsFingerprint(in)
	}
	lattice := func(seed int64) uint64 { return latticeFingerprint(latticeDefault, seed) }
	for name, fp := range map[string]func(int64) uint64{"session-tcp": session, "paper-apps-tcp": paper, "lattice-sim": lattice} {
		if fp(1) != fp(1) {
			t.Errorf("%s: seed 1 gives two fingerprints", name)
		}
		if fp(1) == fp(2) {
			t.Errorf("%s: seeds 1 and 2 give the same fingerprint", name)
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON: the metrics the benchmark emits are
// exactly those BENCHMARK.json declares, with the same units.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for w := range workloads {
		have = append(have, w)
	}
	sort.Strings(names)
	sort.Strings(have)
	if !slices.Equal(names, have) {
		t.Errorf("workloads: BENCHMARK.json %v, benchmark %v", names, have)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("end_to_end: BENCHMARK.json has %d metrics, benchmark %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		s := spec.EndToEnd[i]
		if s.Name != m.name || s.Unit != m.unit || s.Better != m.better {
			t.Errorf("end_to_end[%d]: BENCHMARK.json %+v, benchmark %+v", i, s, m)
		}
	}
	per := perLayerNames()
	if len(spec.PerLayer) != len(per) {
		t.Fatalf("per_layer: BENCHMARK.json has %d metrics, benchmark %d", len(spec.PerLayer), len(per))
	}
	for i, name := range per {
		s := spec.PerLayer[i]
		if s.Name != name || s.Unit != unitOf(name) {
			t.Errorf("per_layer[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", i, s.Name, s.Unit, name, unitOf(name))
		}
	}
}

// TestSmoke runs a tiny size of every workload, untraced and traced: every
// oracle must pass, every end-to-end slot must be filled, and the traced
// pass must yield every per-layer metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name, run := range workloads {
		t.Run(name, func(t *testing.T) {
			ctx := runCtx{seed: 3, seconds: time.Second, smoke: true, logf: t.Logf}
			o, err := run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if o.failed != 0 || len(o.problems) != 0 {
				t.Fatalf("untraced: %d failed: %v", o.failed, o.problems)
			}
			for _, m := range endToEnd {
				if v, ok := o.slots[m.name]; !ok || v <= 0 {
					t.Errorf("end-to-end %s = %v (present %v)", m.name, v, ok)
				}
			}
			ctx.rec = newLayerRec()
			traced, err := run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if traced.failed != 0 {
				t.Fatalf("traced: %d failed: %v", traced.failed, traced.problems)
			}
			per := ctx.rec.perLayer(traced.ops, map[string]float64{})
			for _, n := range perLayerNames() {
				if _, ok := per[n]; !ok {
					t.Errorf("per-layer %s missing", n)
				}
			}
			if len(per) != len(perLayerNames()) {
				t.Errorf("per-layer: %d metrics, want %d", len(per), len(perLayerNames()))
			}
		})
	}
}

// TestUnlikeEnvironments: the compare step scores only results from like
// environments and names every difference otherwise.
func TestUnlikeEnvironments(t *testing.T) {
	a := envPrint{NumCPU: 2, GOMAXPROCS: 2, CPUModel: "x", GoVersion: "go1", CalibrationNs: 2.0}
	b := a
	b.Commit = "other"
	b.CalibrationNs = 2.2
	if d := unlike(a, b); len(d) != 0 {
		t.Errorf("like environments flagged: %v", d)
	}
	b.NumCPU, b.CalibrationNs = 8, 4.0
	if d := unlike(a, b); len(d) != 2 {
		t.Errorf("want core count and calibration flagged, got %v", d)
	}
}

// TestSustainedRate: a lone rung that misses the SLO is passed over, the
// knee is interpolated in the logarithm of the p99, and a nominal rate that
// misses scales down from it.
func TestSustainedRate(t *testing.T) {
	const slo = 50
	rates := []float64{4, 20, 24, 28, 32}
	cases := []struct {
		name string
		p99s []float64
		want float64
	}{
		{"all meet", []float64{5, 10, 20, 30, 40}, 32},
		{"knee", []float64{5, 10, 25, 100, 200}, 24 + 4*0.5},
		{"lone miss", []float64{5, 60, 25, 100, 200}, 24 + 4*0.5},
		{"nominal misses", []float64{100, 200, 300, 400, 500}, 2},
	}
	for _, c := range cases {
		ok := make([]bool, len(c.p99s))
		for i, p := range c.p99s {
			ok[i] = p <= slo
		}
		if got := sustainedRate(rates, c.p99s, ok, slo); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: sustained rate %g, want %g", c.name, got, c.want)
		}
	}
}
