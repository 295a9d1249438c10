package main

import (
	"sync"
	"sync/atomic"
	"time"

	"peas/internal/checkpoint"
	"peas/internal/core"
	"peas/internal/experiment"
	"peas/internal/node"
	"peas/internal/radio"
)

// runTally sums the per-layer counters of instrumented simulator runs.
// The service runs two at once, so it is safe for concurrent use.
type runTally struct {
	mu              sync.Mutex
	events          uint64
	transmits       uint64 // counted by the Medium.OnTransmit hook
	packetsSent     uint64 // reported by the medium's own counter
	collided        uint64
	wakeups         uint64
	workingChanges  uint64 // counted by the Network.OnWorkingChange hook
	coverageSamples int
	failures        int
	reports         int
	delivered       int
	runWall         samples // experiment.Run wall seconds

	captures     atomic.Uint64 // snapshots handed to OnCheckpoint
	capturesUsed atomic.Uint64 // ... that the consumer kept (stop=true)
}

// instrumentedRun calls experiment.Run with counting hooks chained onto
// the network's observers (always calling the hook already installed)
// and, when the caller checkpoints, a counting OnCheckpoint wrapper.
func (t *runTally) instrumentedRun(cfg experiment.RunConfig) (*experiment.RunStats, error) {
	var (
		eng interface{ Executed() uint64 }
		tx  uint64
		wc  uint64
	)
	prevNet := cfg.OnNetwork
	cfg.OnNetwork = func(net *node.Network) {
		if prevNet != nil {
			prevNet(net)
		}
		eng = net.Engine
		prevTx := net.Medium.OnTransmit
		net.Medium.OnTransmit = func(pkt radio.Packet) {
			tx++
			if prevTx != nil {
				prevTx(pkt)
			}
		}
		prevWC := net.OnWorkingChange
		net.OnWorkingChange = func(id core.NodeID, working bool) {
			wc++
			if prevWC != nil {
				prevWC(id, working)
			}
		}
	}
	if prevCk := cfg.OnCheckpoint; prevCk != nil {
		cfg.OnCheckpoint = func(s *checkpoint.Snapshot) bool {
			stop := prevCk(s)
			t.captures.Add(1)
			if stop {
				t.capturesUsed.Add(1)
			}
			return stop
		}
	}
	start := time.Now()
	st, err := experiment.Run(cfg)
	wall := time.Since(start)
	if err != nil {
		return st, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if eng != nil {
		t.events += eng.Executed()
	}
	t.transmits += tx
	t.packetsSent += st.PacketsSent
	t.collided += st.PacketsCollided
	t.wakeups += st.Wakeups
	t.workingChanges += wc
	t.coverageSamples += st.CoverageSamples
	t.failures += st.FailuresInjected
	t.reports += st.ReportsGenerated
	t.delivered += st.ReportsDelivered
	t.runWall.addDur(wall)
	return st, nil
}

// layerMetrics are the per-layer metric names, in the order README.md
// documents them. Every traced run prints all of them; a layer a
// workload does not exercise reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"forward.self_ms", "ms"},
	{"forward.reports", "count"},
	{"forward.reports_delivered", "count"},
	{"forward.reports_per_working_change", "ratio"},
	{"sim.self_ms", "ms"},
	{"sim.events", "count"},
	{"sim.allocs_per_event", "allocs/event"},
	{"radio.self_ms", "ms"},
	{"radio.packets_sent", "count"},
	{"radio.packets_collided", "count"},
	{"core.self_ms", "ms"},
	{"core.wakeups", "count"},
	{"node.self_ms", "ms"},
	{"node.working_changes", "count"},
	{"energy.self_ms", "ms"},
	{"coverage.self_ms", "ms"},
	{"coverage.samples", "count"},
	{"failure.self_ms", "ms"},
	{"failure.injected", "count"},
	{"experiment.self_ms", "ms"},
	{"experiment.run_p50_ms", "ms"},
	{"runtime.gc_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.forced_gc_cycles", "count"},
	{"runtime.alloc_mb", "MB"},
	{"jobqueue.retained_kb_per_job", "KB"},
	{"jobqueue.overhead_p50_ms", "ms"},
	{"jobqueue.self_ms", "ms"},
	{"jobqueue.queue_wait_p50_ms", "ms"},
	{"jobqueue.queue_wait_p99_ms", "ms"},
	{"jobqueue.run_p50_ms", "ms"},
	{"jobqueue.accepted", "count"},
	{"jobqueue.cached", "count"},
	{"jobqueue.coalesced", "count"},
	{"jobqueue.cache_hit_ratio", "ratio"},
	{"checkpoint.captures", "count"},
	{"checkpoint.captures_used_ratio", "ratio"},
	{"checkpoint.self_ms", "ms"},
	{"durable.fsyncs", "count"},
	{"durable.fsync_p50_ms", "ms"},
	{"durable.fsync_p99_ms", "ms"},
	{"durable.busy_ms", "ms"},
	{"server.submit_handler_p50_ms", "ms"},
	{"server.self_ms", "ms"},
	{"other.self_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
	// Tail latencies of the untraced passes that open a traced run. They
	// swing too far from run to run on a shared 2-core VM (fsync and
	// scheduler tails) to carry an end-to-end bound.
	{"untraced.job_latency_p99_ms", "ms"},
	{"untraced.submit_latency_p99_ms", "ms"},
	// The reference loop's median time in those untraced passes: the
	// host speed their times, like every end-to-end time, are scaled by
	// (calibrate.go).
	{"host.ref_loop_ms", "ms"},
}

// layerReport collects per-layer values; metrics() fills every name in
// layerMetrics, zero where a workload left it unset.
type layerReport map[string]float64

func (r layerReport) metrics() map[string]metric {
	out := make(map[string]metric, len(layerMetrics))
	for _, m := range layerMetrics {
		out[m.name] = metric{Value: r[m.name], Unit: m.unit}
	}
	return out
}

// addSimLayers records the simulator-side counters and CPU shares, all
// per measured pass.
func (r layerReport) addSimLayers(t *runTally, cpu map[string]float64, mem *memDelta, passes int) {
	per := func(v float64) float64 { return v / float64(passes) }
	for _, l := range []string{"forward", "sim", "radio", "core", "node", "energy", "coverage",
		"failure", "experiment", "jobqueue", "checkpoint", "durable", "server", "other"} {
		r[l+".self_ms"] = per(cpu[l])
	}
	r["runtime.gc_ms"] = per(cpu[layerGC])
	r["forward.reports"] = per(float64(t.reports))
	r["forward.reports_delivered"] = per(float64(t.delivered))
	if t.workingChanges > 0 {
		r["forward.reports_per_working_change"] = float64(t.reports) / float64(t.workingChanges)
	}
	r["sim.events"] = per(float64(t.events))
	if t.events > 0 {
		r["sim.allocs_per_event"] = float64(mem.mallocs) / float64(t.events)
	}
	r["radio.packets_sent"] = per(float64(t.transmits))
	r["radio.packets_collided"] = per(float64(t.collided))
	r["core.wakeups"] = per(float64(t.wakeups))
	r["node.working_changes"] = per(float64(t.workingChanges))
	r["coverage.samples"] = per(float64(t.coverageSamples))
	r["failure.injected"] = per(float64(t.failures))
	r["experiment.run_p50_ms"] = ms(t.runWall.median())
	r["runtime.gc_cycles"] = per(float64(mem.gcCycles))
	r["runtime.forced_gc_cycles"] = per(float64(mem.forcedGC))
	r["runtime.alloc_mb"] = per(float64(mem.allocBytes)) / (1 << 20)
	if c := t.captures.Load(); c > 0 {
		r["checkpoint.captures"] = per(float64(c))
		r["checkpoint.captures_used_ratio"] = float64(t.capturesUsed.Load()) / float64(c)
	}
}
