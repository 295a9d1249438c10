// Command perfbench is the same-machine benchmark of the PEAS simulator
// and its job service. One invocation runs one named workload for a
// fixed measuring window and prints, as its last line of standard
// output, a JSON object with the correctness verdict, the attempted and
// failed operation counts, and either the end-to-end metrics (untraced,
// -trace 0) or the per-layer metrics (traced, -trace 1).
//
//	go build -o perfbench . && ./perfbench -workload sim-lifetime -seed 1 -seconds 20 -trace 0
//
// Workloads (see README.md for why each exists and what it predicts):
//
//	sim-lifetime  the paper's headline setting, run serially
//	sim-protocol  the same deployments with forwarding and failures off
//	service-mix   an in-process pool behind server.New, driven by two
//	              closed-loop clients over loopback TCP and SSE
//
// Every layer is measured from outside, through public entry points and
// the existing observer and injection hooks; no program file is changed
// to make it measurable. Every end-to-end time is scaled to a reference
// host speed measured around it (calibrate.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed whose outputs golden.json pins down.
const defaultSeed = 1

// metric is one named value as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload runs one benchmark invocation: untraced end-to-end passes, or
// a traced run producing the per-layer metrics.
type workload interface {
	endToEnd(seed int64, window time.Duration) (*result, error)
	perLayer(seed int64, window time.Duration) (*result, error)
}

// workloads are the benchmark's named workloads.
var workloads = map[string]func() workload{
	"sim-lifetime": func() workload { return &simWorkload{name: "sim-lifetime", lifetime: true} },
	"sim-protocol": func() workload { return &simWorkload{name: "sim-protocol"} },
	"service-mix":  func() workload { return &serviceWorkload{} },
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: sim-lifetime, sim-protocol or service-mix")
		seed    = flag.Int64("seed", defaultSeed, "workload seed; every input is derived from it")
		seconds = flag.Int("seconds", 20, "measuring window in seconds")
		traced  = flag.Int("trace", 0, "0 = end-to-end metrics (untraced), 1 = per-layer metrics (traced run)")
		golden  = flag.Bool("print-golden", false, "print the workload's golden entry at the default seed and exit")
	)
	flag.StringVar(&workRoot, "workdir", ".bench_build", "directory for the service's per-pass state dirs")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced, *golden); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, traced int, golden bool) error {
	mk, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", seconds)
	}
	if traced != 0 && traced != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", traced)
	}
	// Two threads: the benchmark is defined for a 2-core machine, and
	// pinning the parallelism keeps runs comparable on bigger ones.
	runtime.GOMAXPROCS(2)

	if golden {
		return printGolden(name)
	}
	w := mk()
	window := time.Duration(seconds) * time.Second
	var (
		res *result
		err error
	)
	if traced == 1 {
		res, err = w.perLayer(seed, window)
	} else {
		res, err = w.endToEnd(seed, window)
	}
	if err != nil {
		return err
	}
	printSummary(name, res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printSummary writes a human-readable table of the result to stderr.
func printSummary(name string, res *result) {
	fmt.Fprintf(os.Stderr, "workload %s: correct=%v attempted=%d failed=%d failed_ratio=%.4f\n",
		name, res.Correct, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := res.Metrics[k]
		fmt.Fprintf(os.Stderr, "  %-36s %14.4f %s\n", k, m.Value, m.Unit)
	}
}

// checks counts correctness findings. A failed check marks the run
// incorrect and counts as one failed operation; the first few are
// described on stderr.
type checks struct {
	failed int
}

func (c *checks) expect(ok bool, format string, args ...any) {
	if ok {
		return
	}
	c.failed++
	if c.failed <= 20 {
		fmt.Fprintln(os.Stderr, "CHECK FAILED:", fmt.Sprintf(format, args...))
	}
}

// timedPasses calls pass until the window is spent, at least minPasses
// times.
func timedPasses(window time.Duration, minPasses int, pass func() error) error {
	start := time.Now()
	for i := 0; i < minPasses || time.Since(start) < window; i++ {
		if err := pass(); err != nil {
			return err
		}
	}
	return nil
}
