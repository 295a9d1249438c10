package main

import (
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	var s samples
	for i := 1; i <= 1000; i++ {
		s.add(float64(i))
	}
	for _, c := range []struct {
		q      float64
		want   float64
		beyond int
	}{{0.5, 500, 500}, {0.99, 990, 10}, {1, 1000, 0}} {
		if got := s.quantile(c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
		if got := s.beyond(c.q); got != c.beyond {
			t.Errorf("beyond(%v) = %d, want %d", c.q, got, c.beyond)
		}
	}
	if got := (samples{}).quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "peas/internal/geom.(*Index).Within", "peas/internal/radio.(*Medium).Broadcast", "peas/internal/core.(*Protocol).probe"}, "radio"},
		{[]string{"peas/internal/connectivity.Reachable", "peas/internal/forward.(*Harness).generate"}, "forward"},
		{[]string{"encoding/json.Marshal", "peas/internal/server/api.X", "net/http.(*conn).serve"}, "server"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, layerGC},
		{[]string{"runtime.markroot", "runtime.GC", "peas/internal/perf.(*AllocMeter).Start", "peas/internal/jobqueue.(*Pool).executeRun"}, layerGC},
		{[]string{"syscall.Syscall", "net/http.(*conn).serve"}, layerOther},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestLayerCPUParsesTraces(t *testing.T) {
	const traces = `File: perfbench
Type: cpu
Duration: 1s, Total samples = 40000000ns ( 4.00%)
-----------+-------------------------------------------------------
  30000000ns   runtime.mallocgc
             peas/internal/radio.(*Medium).Broadcast (inline)
             peas/internal/core.(*Protocol).probe
-----------+-------------------------------------------------------
      phase:  run
  10000000ns   runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
`
	got := layerCPU([]byte(traces))
	if len(got) != 2 || got["radio"] != 30 || got[layerGC] != 10 {
		t.Fatalf("layerCPU = %v, want radio 30 ms and %s 10 ms", got, layerGC)
	}
}

// TestCPUProfileSegments profiles a busy loop in two segments, with an
// unprofiled busy loop between them, and checks that only the profiled
// time is recovered.
func TestCPUProfileSegments(t *testing.T) {
	workRoot = t.TempDir()
	prof, err := newCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	busy := func(d time.Duration) int {
		x := 0
		for deadline := time.Now().Add(d); time.Now().Before(deadline); x++ {
		}
		return x
	}
	for i := 0; i < 2; i++ {
		if err := prof.during(func() error { busy(200 * time.Millisecond); return nil }); err != nil {
			t.Fatal(err)
		}
		busy(400 * time.Millisecond)
	}
	cpu, err := prof.stop()
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, v := range cpu {
		total += v
	}
	if total < 200 || total > 600 {
		t.Fatalf("recovered %v ms of CPU from 400 ms of profiled busy loop: %v", total, cpu)
	}
}

// The reference loop must do the same work on every call and allocate
// nothing after its first, or its time would not measure the host alone.
func TestReferenceLoopIsFixedWork(t *testing.T) {
	var h hostSpeed
	h.init()
	want := h.loop()
	if got := h.loop(); got != want {
		t.Fatalf("second loop returned %v, first %v", got, want)
	}
	if allocs := testing.AllocsPerRun(3, func() { h.loop() }); allocs != 0 {
		t.Errorf("loop allocates %v times per call, want 0", allocs)
	}
}

// around scales by the nominal time over the mean of the samples that
// bracket the work, and the closing sample opens the next piece of work.
func TestAroundBracketsWork(t *testing.T) {
	var h hostSpeed
	for i := 0; i < 3; i++ {
		f, err := h.around(func() error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		n := len(h.times)
		if n != i+2 {
			t.Fatalf("after %d calls: %d samples, want %d", i+1, n, i+2)
		}
		want := refLoopNominal / ((h.times[n-2] + h.times[n-1]) / 2)
		if f != want {
			t.Errorf("call %d: factor %v, want %v", i+1, f, want)
		}
	}
}
