package main

import (
	"sync"
	"time"

	"mixedmem/internal/core"
	"mixedmem/internal/hist"
	"mixedmem/internal/history"
)

// spanSet collects the traced run's operation spans by name. The workload
// drivers and the paper's programs reach the runtime only through
// core.Process, so the traced run hands them a tracedProc in place of the
// *core.Proc: every span is taken here, around the call into the dsm layer,
// and none inside the program.
type spanSet struct {
	mu sync.Mutex
	h  map[string]*hist.Histogram
}

func newSpanSet() *spanSet { return &spanSet{h: map[string]*hist.Histogram{}} }

func (s *spanSet) add(name string, d time.Duration) {
	s.mu.Lock()
	record(s.h, name, int64(d))
	s.mu.Unlock()
}

// get returns the named span histogram, empty when nothing was recorded.
func (s *spanSet) get(name string) *hist.Histogram {
	s.mu.Lock()
	defer s.mu.Unlock()
	if h := s.h[name]; h != nil {
		return h.Clone()
	}
	return hist.New()
}

// Span names.
const (
	spanWrite      = "write"
	spanReadSlow   = "read.slow"
	spanReadPRAM   = "read.pram"
	spanReadCausal = "read.causal"
	spanAwait      = "await"
	spanSC         = "sc"
)

// tracedProc decorates one process handle with spans around its memory
// operations. Locks and barriers pass through untouched: the sync manager's
// own statistics measure them.
type tracedProc struct {
	*core.Proc
	ops tracedOps
}

var _ core.Process = (*tracedProc)(nil)

func newTracedProc(p *core.Proc, spans *spanSet, labels map[string]history.Label) *tracedProc {
	return &tracedProc{Proc: p, ops: tracedOps{inner: p, spans: spans, labels: labels}}
}

func (p *tracedProc) Write(loc string, v int64)      { p.ops.Write(loc, v) }
func (p *tracedProc) ReadPRAM(loc string) int64      { return p.ops.ReadPRAM(loc) }
func (p *tracedProc) ReadCausal(loc string) int64    { return p.ops.ReadCausal(loc) }
func (p *tracedProc) ReadSlow(loc string) int64      { return p.ops.ReadSlow(loc) }
func (p *tracedProc) ReadSC(loc string) int64        { return p.ops.ReadSC(loc) }
func (p *tracedProc) Await(loc string, v int64)      { p.ops.Await(loc, v) }
func (p *tracedProc) AwaitPRAM(loc string, v int64)  { p.ops.AwaitPRAM(loc, v) }
func (p *tracedProc) Add(loc string, d int64)        { p.ops.Add(loc, d) }
func (p *tracedProc) AddFloat(loc string, d float64) { p.ops.AddFloat(loc, d) }
func (p *tracedProc) Forall(n int, body func(int, core.ThreadOps)) {
	p.Proc.Forall(n, func(i int, t core.ThreadOps) {
		body(i, tracedOps{inner: t, spans: p.ops.spans, labels: p.ops.labels})
	})
}

// tracedOps is the span-taking wrapper shared by a process's main strand
// and its Forall strands.
type tracedOps struct {
	inner  core.ThreadOps
	spans  *spanSet
	labels map[string]history.Label
}

func (t tracedOps) Write(loc string, v int64) {
	name := spanWrite
	if t.labels[loc] == history.LabelSC {
		name = spanSC
	}
	start := time.Now()
	t.inner.Write(loc, v)
	t.spans.add(name, time.Since(start))
}

func (t tracedOps) ReadPRAM(loc string) int64 {
	start := time.Now()
	v := t.inner.ReadPRAM(loc)
	t.spans.add(spanReadPRAM, time.Since(start))
	return v
}

func (t tracedOps) ReadCausal(loc string) int64 {
	start := time.Now()
	v := t.inner.ReadCausal(loc)
	t.spans.add(spanReadCausal, time.Since(start))
	return v
}

func (t tracedOps) ReadSlow(loc string) int64 {
	start := time.Now()
	v := t.inner.ReadSlow(loc)
	t.spans.add(spanReadSlow, time.Since(start))
	return v
}

func (t tracedOps) ReadSC(loc string) int64 {
	start := time.Now()
	v := t.inner.ReadSC(loc)
	t.spans.add(spanSC, time.Since(start))
	return v
}

func (t tracedOps) Await(loc string, v int64) {
	start := time.Now()
	t.inner.Await(loc, v)
	t.spans.add(spanAwait, time.Since(start))
}

func (t tracedOps) AwaitPRAM(loc string, v int64) {
	start := time.Now()
	t.inner.AwaitPRAM(loc, v)
	t.spans.add(spanAwait, time.Since(start))
}

func (t tracedOps) Add(loc string, d int64)        { t.inner.Add(loc, d) }
func (t tracedOps) AddFloat(loc string, d float64) { t.inner.AddFloat(loc, d) }
