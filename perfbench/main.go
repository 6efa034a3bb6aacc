// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload of the mixed-consistency runtime from a seed, checks every
// result against its oracle, and prints the metrics as the last line of
// standard output:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	perfbench compare <old.json> <new.json>
//
// Workloads are session-tcp, paper-apps-tcp and lattice-sim (README.md in
// this directory says what each measures and why). --trace 0 measures the
// end-to-end metrics with every probe off; --trace 1 runs the workload
// twice, untraced and traced, and reports the per-layer metrics plus the
// tracing overhead. --out writes the full result, stamped with the
// environment fingerprint, for the compare step.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// e2eMetric is one end-to-end metric of the JSON result. Every workload
// reports every one of them; README.md maps each to the workload's own
// named figure.
type e2eMetric struct {
	name, unit, better string
}

var endToEnd = []e2eMetric{
	{"setup_s", "s", "lower"},
	{"live_heap_mb", "MB", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"latency_1_ms", "ms", "lower"},
	{"latency_2_ms", "ms", "lower"},
	{"latency_3_ms", "ms", "lower"},
	{"latency_4_ms", "ms", "lower"},
}

// runCtx is what a workload runner gets: the seed, the measured duration,
// and, in the traced pass, the per-layer recorder.
type runCtx struct {
	seed    int64
	seconds time.Duration
	rec     *layerRec
	smoke   bool
	logf    func(format string, args ...any)
}

// namedMetric is one of the workload's own figures, reported by name.
type namedMetric struct {
	name  string
	value float64
	unit  string
}

// outcome is one workload run's result.
type outcome struct {
	named       []namedMetric
	slots       map[string]float64
	attempted   int64
	failed      int64
	problems    []string // wrong results; each is also counted in failed
	notes       []string // measurement caveats, not failures
	ops         int64
	fingerprint uint64
}

func (o *outcome) set(name string, v float64, unit string) {
	for i := range o.named {
		if o.named[i].name == name {
			o.named[i].value = v
			return
		}
	}
	o.named = append(o.named, namedMetric{name, v, unit})
}

// setTail records a percentile and notes when fewer than ten samples lie
// beyond it. The full-size workloads always resolve their percentiles; the
// smoke sizes the tests use need not.
func (o *outcome) setTail(name string, v float64, unit string, n int, q float64) {
	if !tailOK(n, q) {
		o.notes = append(o.notes, fmt.Sprintf("%s: only %d samples, too few to resolve p%g", name, n, q*100))
	}
	o.set(name, v, unit)
}

func (o *outcome) val(name string) float64 {
	for _, m := range o.named {
		if m.name == name {
			return m.value
		}
	}
	return 0
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

var workloads = map[string]func(runCtx) (*outcome, error){
	"session-tcp":    runSessionTCP,
	"paper-apps-tcp": runPaperApps,
	"lattice-sim":    runLatticeSim,
}

// jsonMetric and jsonResult are the last line of standard output.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// deadline bounds a whole run: no blocking primitive of the runtime has a
// timeout, so a hang would otherwise never end the process.
const deadline = 170 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: session-tcp, paper-apps-tcp or lattice-sim")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	outPath := fs.String("out", "", "also write the full result, with its environment fingerprint, to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	timer := time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s did not finish within %v\n", *name, deadline)
		os.Exit(3)
	})
	defer timer.Stop()

	env := fingerprintEnv()
	logf := func(format string, args ...any) { fmt.Printf("# "+format+"\n", args...) }
	logf("env %s", env)
	dur := time.Duration(*seconds * float64(time.Second))

	var res *outcome
	var metrics map[string]jsonMetric
	attempted, failed := int64(0), int64(0)
	var problems []string
	if *trace == 0 {
		o, err := run(runCtx{seed: *seed, seconds: dur, logf: logf})
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
			return 1
		}
		res = o
		attempted, failed, problems = o.attempted, o.failed, o.problems
		metrics = map[string]jsonMetric{}
		for _, m := range endToEnd {
			metrics[m.name] = jsonMetric{o.slots[m.name], m.unit}
		}
	} else {
		base, err := run(runCtx{seed: *seed, seconds: dur / 2, logf: logf})
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s (untraced pass): %v\n", *name, err)
			return 1
		}
		rec := newLayerRec()
		traced, err := run(runCtx{seed: *seed, seconds: dur / 2, rec: rec, logf: logf})
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s (traced pass): %v\n", *name, err)
			return 1
		}
		res = traced
		attempted = base.attempted + traced.attempted
		failed = base.failed + traced.failed
		problems = append(base.problems, traced.problems...)
		overhead := map[string]float64{}
		for _, m := range endToEnd {
			overhead[m.name] = traced.slots[m.name] - base.slots[m.name]
		}
		metrics = map[string]jsonMetric{}
		for k, v := range rec.perLayer(traced.ops, overhead) {
			metrics[k] = jsonMetric{v, unitOf(k)}
		}
	}

	for _, m := range res.named {
		logf("%-18s %14.6f %s", m.name, m.value, m.unit)
	}
	frac := 0.0
	if attempted > 0 {
		frac = float64(failed) / float64(attempted)
	}
	logf("%-18s %14.6f fraction", "failed_frac", frac)
	logf("workload fingerprint %016x", res.fingerprint)
	for _, n := range res.notes {
		logf("note: %s", n)
	}
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "perfbench: wrong result: %s\n", p)
	}
	for k, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			metrics[k] = jsonMetric{0, m.Unit}
		}
	}
	out := jsonResult{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}
	if *outPath != "" {
		if err := writeResultFile(*outPath, *name, *seed, *trace, env, res, out); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if failed > 0 {
		return 1
	}
	return 0
}
