package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// envPrint identifies the machine and code a result was measured on. Two
// results compare only when their fingerprints are alike: same core count,
// GOMAXPROCS, CPU model and Go version, and calibration loops within
// calibrationTolerance of each other. The commit is recorded, not
// compared: comparing two commits is the point of the compare step.
type envPrint struct {
	NumCPU        int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	CPUModel      string  `json:"cpu_model"`
	GoVersion     string  `json:"go_version"`
	Commit        string  `json:"commit"`
	CalibrationNs float64 `json:"calibration_ns"`
}

const calibrationTolerance = 0.25

func (e envPrint) String() string {
	b, _ := json.Marshal(e)
	return string(b)
}

func fingerprintEnv() envPrint {
	return envPrint{
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		CPUModel:      cpuModel(),
		GoVersion:     runtime.Version(),
		Commit:        commitID(),
		CalibrationNs: calibrate(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitID names the code under test: the git commit when the working
// directory is a git checkout, otherwise a hash of the module's Go sources
// and go.mod files, which identifies the same code just as well.
func commitID() string {
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(head))
		if r, ok := strings.CutPrefix(ref, "ref: "); ok {
			if id, err := os.ReadFile(filepath.Join(".git", r)); err == nil {
				return strings.TrimSpace(string(id))
			}
		} else {
			return ref
		}
	}
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}

var calibrationSink uint64

// calibrate times a fixed single-threaded loop (xorshift plus updates to a
// 4 KiB table, so it exercises the ALU and the L1 cache) and returns the
// fastest of seven repeats in nanoseconds per iteration. The fastest repeat
// is the one least disturbed by other work; a slower host shows up here
// before it shows up in the metrics.
func calibrate() float64 {
	const iters = 1 << 20
	best := math.MaxFloat64
	for rep := 0; rep < 7; rep++ {
		var tbl [512]uint64
		x := uint64(rep + 1)
		start := time.Now()
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			tbl[x&511] += x
		}
		if d := float64(time.Since(start)) / iters; d < best {
			best = d
		}
		calibrationSink += tbl[rep]
	}
	return best
}

// unlike lists the ways two fingerprints differ; empty means comparable.
func unlike(a, b envPrint) []string {
	var d []string
	if a.NumCPU != b.NumCPU {
		d = append(d, fmt.Sprintf("nproc %d vs %d", a.NumCPU, b.NumCPU))
	}
	if a.GOMAXPROCS != b.GOMAXPROCS {
		d = append(d, fmt.Sprintf("GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS))
	}
	if a.CPUModel != b.CPUModel {
		d = append(d, fmt.Sprintf("CPU %q vs %q", a.CPUModel, b.CPUModel))
	}
	if a.GoVersion != b.GoVersion {
		d = append(d, fmt.Sprintf("Go %s vs %s", a.GoVersion, b.GoVersion))
	}
	if lo, hi := a.CalibrationNs, b.CalibrationNs; lo > 0 && hi > 0 {
		if lo > hi {
			lo, hi = hi, lo
		}
		if hi/lo-1 > calibrationTolerance {
			d = append(d, fmt.Sprintf("calibration %.2f vs %.2f ns/iter", a.CalibrationNs, b.CalibrationNs))
		}
	}
	return d
}

// resultFile is what --out writes and compare reads.
type resultFile struct {
	Workload    string                `json:"workload"`
	Seed        int64                 `json:"seed"`
	Trace       int                   `json:"trace"`
	Env         envPrint              `json:"env"`
	Fingerprint string                `json:"workload_fingerprint"`
	Named       map[string]jsonMetric `json:"named"`
	// EndToEnd holds the end-to-end values of the run; with --trace 1 they
	// are the traced pass's.
	EndToEnd map[string]float64 `json:"end_to_end"`
	Result   jsonResult         `json:"result"`
}

func writeResultFile(path, workload string, seed int64, trace int, env envPrint, o *outcome, res jsonResult) error {
	rf := resultFile{
		Workload: workload, Seed: seed, Trace: trace, Env: env,
		Fingerprint: fmt.Sprintf("%016x", o.fingerprint),
		Named:       map[string]jsonMetric{},
		EndToEnd:    o.slots,
		Result:      res,
	}
	for _, m := range o.named {
		rf.Named[m.name] = jsonMetric{m.value, m.unit}
	}
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write result: %w", err)
	}
	return nil
}

func readResultFile(path string) (resultFile, error) {
	var rf resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(b, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// benchSpec is the part of BENCHMARK.json the compare step needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain compares two result files written by --out. Results from
// unlike environments are flagged and not scored: the difference would
// measure the machines, not the code. Otherwise each end-to-end metric is
// scored against its bound in BENCHMARK.json, and the exit code is 1 when
// any got worse by more than its bound.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare <old.json> <new.json>")
		return 2
	}
	oldR, err := readResultFile(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	newR, err := readResultFile(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	if oldR.Workload != newR.Workload || oldR.Trace != newR.Trace {
		fmt.Printf("NOT COMPARABLE: workload %s/trace %d vs %s/trace %d\n", oldR.Workload, oldR.Trace, newR.Workload, newR.Trace)
		return 0
	}
	if d := unlike(oldR.Env, newR.Env); len(d) > 0 {
		fmt.Printf("UNLIKE ENVIRONMENTS, not scored: %s\n", strings.Join(d, "; "))
		return 0
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare: run from the repository root:", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare: BENCHMARK.json:", err)
		return 2
	}
	worse := 0
	for _, m := range spec.EndToEnd {
		a, b := oldR.EndToEnd[m.Name], newR.EndToEnd[m.Name]
		if a == 0 {
			fmt.Printf("%-18s %12.6g -> %12.6g  (no base)\n", m.Name, a, b)
			continue
		}
		change := b/a - 1
		regress := change
		if m.Better == "higher" {
			regress = -change
		}
		verdict := "ok"
		if regress > m.Bound {
			verdict = "WORSE"
			worse++
		}
		fmt.Printf("%-18s %12.6g -> %12.6g  %+6.1f%%  bound %.0f%%  %s\n", m.Name, a, b, change*100, m.Bound*100, verdict)
	}
	if worse > 0 {
		return 1
	}
	return 0
}
