package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strconv"
	"strings"
)

// cpuProfile records a CPU profile of the program's work only: the
// profiler runs in segments around the measured work, and is off while
// the benchmark collects garbage or inspects state between them. Each
// segment is a file in a directory under workRoot.
type cpuProfile struct {
	dir  string
	segs []string
	cur  *os.File
}

func newCPUProfile() (*cpuProfile, error) {
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workRoot, "cpuprof-*")
	if err != nil {
		return nil, err
	}
	return &cpuProfile{dir: dir}, nil
}

// start opens a new segment.
func (p *cpuProfile) start() error {
	f, err := os.Create(filepath.Join(p.dir, fmt.Sprintf("seg-%04d.pprof", len(p.segs))))
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("starting CPU profile: %w", err)
	}
	p.cur = f
	p.segs = append(p.segs, f.Name())
	return nil
}

// pause closes the open segment, if any.
func (p *cpuProfile) pause() error {
	if p.cur == nil {
		return nil
	}
	pprof.StopCPUProfile()
	err := p.cur.Close()
	p.cur = nil
	return err
}

// during runs f inside one segment.
func (p *cpuProfile) during(f func() error) error {
	if err := p.start(); err != nil {
		return err
	}
	err := f()
	if perr := p.pause(); err == nil {
		err = perr
	}
	return err
}

// stop ends profiling, removes the segment files and returns CPU
// milliseconds per layer over all segments.
func (p *cpuProfile) stop() (map[string]float64, error) {
	defer os.RemoveAll(p.dir)
	if err := p.pause(); err != nil {
		return nil, err
	}
	if len(p.segs) == 0 {
		return map[string]float64{}, nil
	}
	// pprof merges the segments and prints every sample's stack,
	// innermost frame first, with its CPU time in nanoseconds.
	args := append([]string{"tool", "pprof", "-symbolize=none", "-unit=ns", "-traces"}, p.segs...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	return layerCPU(out), nil
}

// Layer names. Samples are charged to the innermost frame that lies in a
// layer package; helper packages (geom, stats, metrics, trace, ...) and
// runtime allocation are charged to the layer that called them. Stacks
// that run the garbage collector go to layerGC; stacks without any layer
// frame (HTTP plumbing, the scheduler, the benchmark's own loop) go to
// layerOther.
const (
	layerGC    = "runtime.gc"
	layerOther = "other"
)

// layerOf maps the packages of this module to the layer they belong to.
// Connectivity and GRAB routing are folded into forward.
var layerOf = map[string]string{
	"sim":          "sim",
	"radio":        "radio",
	"core":         "core",
	"node":         "node",
	"energy":       "energy",
	"coverage":     "coverage",
	"failure":      "failure",
	"forward":      "forward",
	"connectivity": "forward",
	"grab":         "forward",
	"experiment":   "experiment",
	"jobqueue":     "jobqueue",
	"checkpoint":   "checkpoint",
	"durable":      "durable",
	"server":       "server",
}

// gcFrames are runtime functions whose presence anywhere on a stack
// means the sample is garbage-collection work (background mark workers,
// sweeping and scavenging, explicit runtime.GC, and mark assists).
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.GC":             true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime.gcStart":        true,
	"runtime.gcMarkDone":     true,
}

// classify returns the layer a stack (innermost frame first) is charged to.
func classify(stack []string) string {
	for _, fn := range stack {
		if gcFrames[fn] {
			return layerGC
		}
	}
	for _, fn := range stack {
		if l, ok := layerOf[modulePackage(fn)]; ok {
			return l
		}
	}
	return layerOther
}

// modulePackage returns the first path element under peas/internal/ of a
// fully qualified function name ("peas/internal/radio.(*Medium).Broadcast"
// -> "radio", "peas/internal/server/api.X" -> "server"), or "" for
// functions outside the module's internal tree.
func modulePackage(fn string) string {
	rest, ok := strings.CutPrefix(fn, "peas/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		return rest[:i]
	}
	return rest
}

// traceValue matches the first line of a sample in `go tool pprof
// -unit=ns -traces` output: its value, then its innermost frame.
var traceValue = regexp.MustCompile(`^\s*(\d+)ns   (.+)$`)

// layerCPU sums the CPU time of the samples in `go tool pprof -unit=ns
// -traces` output per layer, in milliseconds. Each sample is a block
// after a "-----------+---" separator: optional label lines, then the
// value with the innermost frame, then one caller per line.
func layerCPU(traces []byte) map[string]float64 {
	out := make(map[string]float64)
	var (
		stack []string
		value int64
	)
	flush := func() {
		if len(stack) > 0 {
			out[classify(stack)] += float64(value) / 1e6
		}
		stack = stack[:0]
	}
	for _, line := range strings.Split(string(traces), "\n") {
		switch {
		case strings.HasPrefix(line, "-----------+"):
			flush()
		case len(stack) == 0:
			if m := traceValue.FindStringSubmatch(line); m != nil {
				value, _ = strconv.ParseInt(m[1], 10, 64)
				stack = append(stack, frameName(m[2]))
			}
		case strings.TrimSpace(line) != "":
			stack = append(stack, frameName(line))
		}
	}
	flush()
	return out
}

func frameName(s string) string {
	return strings.TrimSuffix(strings.TrimSpace(s), " (inline)")
}
