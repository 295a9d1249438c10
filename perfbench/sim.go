package main

import (
	"fmt"
	"os"
	"time"

	"peas/internal/experiment"
	"peas/internal/node"
	"peas/internal/stats"
)

// deployments are the paper's smallest, middle and largest deployment
// sizes (Figs. 9-11, Table 1). A pass runs seedsPerDeployment networks of
// each, so that how much work a pass holds varies less from seed to seed.
var deployments = []int{160, 480, 800}

const seedsPerDeployment = 3

// simWorkload runs the plan's simulations serially through
// experiment.Run: sim-lifetime with forwarding and the base failure rate,
// sim-protocol with both off. A pass runs every configuration of the plan
// once.
type simWorkload struct {
	name     string
	lifetime bool
}

// plan derives the pass's run configurations from the seed. Both
// workloads draw the same per-deployment seeds.
func (w *simWorkload) plan(seed int64) []experiment.RunConfig {
	rng := stats.NewRNG(seed)
	cfgs := make([]experiment.RunConfig, 0, seedsPerDeployment*len(deployments))
	for i := 0; i < seedsPerDeployment; i++ {
		for _, n := range deployments {
			cfg := experiment.RunConfig{
				Network:      node.DefaultConfig(n, rng.Int63()),
				CaptureFinal: true,
			}
			if w.lifetime {
				cfg.FailuresPer5000s = experiment.BaseFailuresPer5000
				cfg.Forwarding = true
			}
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// simOutcome is what one run produced plus how long it took.
type simOutcome struct {
	golden    goldenRun
	reports   int
	delivered int
	failures  int
	wall      time.Duration // experiment.Run call to return
	build     time.Duration // experiment.Run call to OnNetwork: network built, no event run yet
}

// runSim executes one configuration. With a tally it runs instrumented.
func runSim(cfg experiment.RunConfig, tally *runTally) (simOutcome, error) {
	var (
		eng   interface{ Executed() uint64 }
		built time.Time
	)
	cfg.OnNetwork = func(net *node.Network) {
		built = time.Now()
		eng = net.Engine
	}
	run := experiment.Run
	if tally != nil {
		run = tally.instrumentedRun
	}
	start := time.Now()
	st, err := run(cfg)
	wall := time.Since(start)
	if err != nil {
		return simOutcome{}, fmt.Errorf("n=%d seed=%d: %w", cfg.Network.N, cfg.Network.Seed, err)
	}
	if st.FinalState == nil || eng == nil {
		return simOutcome{}, fmt.Errorf("n=%d seed=%d: run returned no final state", cfg.Network.N, cfg.Network.Seed)
	}
	return simOutcome{
		golden: goldenRun{
			N:           cfg.Network.N,
			Seed:        cfg.Network.Seed,
			StateHash:   st.FinalState.StateHashHex(),
			Events:      eng.Executed(),
			PacketsSent: st.PacketsSent,
			Wakeups:     st.Wakeups,
		},
		reports:   st.ReportsGenerated,
		delivered: st.ReportsDelivered,
		failures:  st.FailuresInjected,
		wall:      wall,
		build:     built.Sub(start),
	}, nil
}

// simPasses runs timed passes over the plan and checks every outcome:
// against the golden table at the default seed, and against the first
// pass otherwise (a run is a pure function of its configuration).
//
// Every pass runs the same configurations, so each run's time is taken
// as its median over the passes, every one of them scaled to the
// reference host's speed (calibrate.go).
type simPasses struct {
	w      *simWorkload
	cfgs   []experiment.RunConfig
	ref    []goldenRun // expected outcome per plan entry
	chk    checks
	runs   int
	passes int
	run    perSlot // per plan entry: scaled experiment.Run wall time
	build  perSlot // per plan entry: scaled network construction
	rss    samples // per pass: peak resident set, MB
	speed  hostSpeed
}

func (w *simWorkload) newPasses(seed int64) (*simPasses, error) {
	p := &simPasses{w: w, cfgs: w.plan(seed)}
	g, err := loadGolden()
	if err != nil {
		return nil, err
	}
	// Every invocation checks the golden table: at the default seed
	// through the timed passes themselves, otherwise with one extra
	// untimed pass at the default seed first.
	want := g.SimProtocol
	if w.lifetime {
		want = g.SimLifetime
	}
	if seed == defaultSeed {
		p.ref = want
	} else {
		got, err := w.golden()
		if err != nil {
			return nil, err
		}
		p.checkAgainst(got, want, "golden")
	}
	return p, nil
}

// simTrace instruments traced passes: counting hooks, runtime counters
// and a CPU profile, each covering the experiment.Run calls only.
type simTrace struct {
	tally runTally
	mem   memDelta
	prof  *cpuProfile
}

// pass runs the plan once, instrumented when tr is non-nil.
//
// Each run starts from a collected heap, as a run in a fresh process
// would: the collection of the garbage the previous run left happens
// before the run (in hostSpeed.around), outside its timing and outside
// the CPU profile, and the collections inside a run do not depend on
// what ran before it.
func (p *simPasses) pass(tr *simTrace) error {
	if err := resetPeakRSS(); err != nil {
		return err
	}
	var outs []goldenRun
	for i, cfg := range p.cfgs {
		var o simOutcome
		f, err := p.speed.around(func() (err error) {
			if tr == nil {
				o, err = runSim(cfg, nil)
				return err
			}
			return tr.prof.during(func() error {
				tr.mem.begin()
				defer tr.mem.end()
				o, err = runSim(cfg, &tr.tally)
				return err
			})
		})
		if err != nil {
			return err
		}
		p.runs++
		p.run.add(i, f*o.wall.Seconds())
		p.build.add(i, f*o.build.Seconds())
		p.checkInvariants(o)
		outs = append(outs, o.golden)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	p.rss.add(rss)
	p.passes++
	if p.ref == nil {
		p.ref = outs
	} else {
		p.checkAgainst(outs, p.ref, "reference")
	}
	return nil
}

// checkInvariants asserts what each workload guarantees by construction.
func (p *simPasses) checkInvariants(o simOutcome) {
	n := o.golden.N
	if p.w.lifetime {
		p.chk.expect(o.reports > 0 && o.delivered <= o.reports,
			"%s n=%d: forwarding generated %d reports, delivered %d", p.w.name, n, o.reports, o.delivered)
		return
	}
	p.chk.expect(o.reports == 0 && o.failures == 0,
		"%s n=%d: forwarding and failures must be off, got %d reports and %d failures", p.w.name, n, o.reports, o.failures)
}

func (p *simPasses) checkAgainst(got, want []goldenRun, what string) {
	p.chk.expect(len(got) == len(want), "%s: %d runs, %s table has %d", p.w.name, len(got), what, len(want))
	for i := range got {
		if i >= len(want) {
			break
		}
		p.chk.expect(got[i] == want[i], "%s n=%d: got %+v, %s %+v", p.w.name, got[i].N, got[i], what, want[i])
	}
}

func (p *simPasses) result() *result {
	return &result{
		Correct:   p.chk.failed == 0,
		Attempted: p.runs,
		Failed:    p.chk.failed,
		Metrics:   map[string]metric{},
	}
}

// golden runs the plan once at the default seed.
func (w *simWorkload) golden() ([]goldenRun, error) {
	var out []goldenRun
	for _, cfg := range w.plan(defaultSeed) {
		o, err := runSim(cfg, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, o.golden)
	}
	return out, nil
}

// endToEnd measures untraced passes. On these workloads a "job" is one
// simulation run: job latency is its experiment.Run wall time, submit
// latency the time until its network is built and ready to start, and
// setup_s the plan's summed network construction. Each is taken per run
// as the median over the passes; the plan's wall time is the sum of its
// runs' times.
func (w *simWorkload) endToEnd(seed int64, window time.Duration) (*result, error) {
	p, err := w.newPasses(seed)
	if err != nil {
		return nil, err
	}
	if err := timedPasses(window, 3, func() error { return p.pass(nil) }); err != nil {
		return nil, err
	}
	res := p.result()
	run, build := p.run.medians(), p.build.medians()
	wall := run.sum()
	res.Metrics = map[string]metric{
		"wall_s":                {wall, "s"},
		"setup_s":               {build.sum(), "s"},
		"peak_rss_mb":           {p.rss.median(), "MB"},
		"jobs_per_s":            {float64(len(p.cfgs)) / wall, "1/s"},
		"job_latency_p50_ms":    {ms(run.median()), "ms"},
		"submit_latency_p50_ms": {ms(build.median()), "ms"},
	}
	fmt.Fprintf(os.Stderr, "%s: %d passes, reference loop median %.3f ms (nominal %.3f ms)\n",
		w.name, p.passes, ms(p.speed.times.median()), ms(refLoopNominal))
	return res, nil
}

// perLayer runs untraced passes for half the window (the base of
// trace.overhead_ratio), then instrumented passes, each run inside one
// CPU profile segment.
func (w *simWorkload) perLayer(seed int64, window time.Duration) (*result, error) {
	p, err := w.newPasses(seed)
	if err != nil {
		return nil, err
	}
	if err := timedPasses(window/2, 2, func() error { return p.pass(nil) }); err != nil {
		return nil, err
	}
	untraced := p.run.medians().sum()
	r := layerReport{
		"untraced.job_latency_p99_ms":    ms(p.run.medians().quantile(0.99)),
		"untraced.submit_latency_p99_ms": ms(p.build.medians().quantile(0.99)),
		"host.ref_loop_ms":               ms(p.speed.times.median()),
	}
	p.run, p.passes, p.speed.times = nil, 0, nil

	prof, err := newCPUProfile()
	if err != nil {
		return nil, err
	}
	tr := &simTrace{prof: prof}
	err = timedPasses(window-window/2, 2, func() error { return p.pass(tr) })
	cpu, perr := prof.stop()
	if err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, perr
	}
	p.chk.expect(tr.tally.transmits == tr.tally.packetsSent,
		"%s: OnTransmit hook saw %d frames, medium counted %d", w.name, tr.tally.transmits, tr.tally.packetsSent)

	r.addSimLayers(&tr.tally, cpu, &tr.mem, p.passes)
	r["trace.overhead_ratio"] = p.run.medians().sum() / untraced
	res := p.result()
	res.Metrics = r.metrics()
	return res, nil
}
