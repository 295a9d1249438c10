package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"peas/internal/checkpoint"
	"peas/internal/client"
	"peas/internal/durable"
	"peas/internal/jobqueue"
	"peas/internal/loadgen"
	"peas/internal/server"
	"peas/internal/stats"
)

// Service-mix plan and server settings. The server side uses peas-serve's
// defaults (cache 1024, queue 64, checkpoint every 250 sim-s) with two
// workers; two closed-loop clients follow every job over SSE.
const (
	serviceJobs      = 800 // submissions per pass
	serviceN         = 80
	serviceHorizon   = 1500
	serviceDupRatio  = 0.3
	serviceWorkers   = 2
	serviceClients   = 2
	serviceQueue     = 64
	serviceCache     = 1024
	serviceCkptEvery = 250
	crossCheckKeys   = 6 // seeded sample re-run directly per invocation
	probeKeys        = 4 // golden keys re-run directly per invocation
	setupsPerPass    = 3 // bare service start/stop cycles after each pass
	jobTimeout       = 60 * time.Second
)

// workRoot holds the per-pass state directories (-workdir).
var workRoot string

func serviceMix(seed int64) loadgen.Mix {
	return loadgen.Mix{
		Seed:           seed,
		Jobs:           serviceJobs,
		DuplicateRatio: serviceDupRatio,
		FollowFraction: 1,
		N:              serviceN,
		Horizon:        serviceHorizon,
	}
}

// serviceWorkload drives an in-process jobqueue.Pool behind server.New on
// a loopback TCP listener. Every pass gets a fresh pool and state dir.
type serviceWorkload struct{}

// jobRecord is one submission as the client saw it.
type jobRecord struct {
	key     string
	id      string
	outcome jobqueue.Outcome
	submit  time.Duration // Submit call: POST round trip
	e2e     time.Duration // submit start to the terminal SSE event
	hash    string
	events  uint64
	sseMiss bool // the stream ended without a terminal event
	failMsg string
}

// servicePasses accumulates the records of every pass of one invocation.
type servicePasses struct {
	seed    int64
	items   []loadgen.Item
	chk     checks
	results map[string]jobRecord // key -> first done record, across passes
	listRef string               // sorted (key, StateHash) list hash of the first pass

	submitted int
	sseMisses int
	// Times, all scaled to the reference host's speed (calibrate.go).
	wall      samples // per pass: first submit to last terminal event
	setup     samples // per set-up: fresh state dir, pool, server, listener, client
	e2eP50    samples // per pass: median submission latency
	submitP50 samples // per pass: median Submit round trip
	e2e       samples // per submission
	submit    samples // per submission
	rss       samples // per pass: peak resident set, MB
	speed     hostSpeed
}

// passHooks instruments one traced pass; nil for untraced passes.
type passHooks struct {
	tally   *runTally
	fs      *timingFS
	handler *timedHandler
	prof    *cpuProfile
}

func (w *serviceWorkload) newPasses(seed int64) (*servicePasses, error) {
	g, err := loadGolden()
	if err != nil {
		return nil, err
	}
	items, err := loadgen.Plan(serviceMix(seed))
	if err != nil {
		return nil, err
	}
	p := &servicePasses{seed: seed, items: items, results: map[string]jobRecord{}}
	if seed == defaultSeed {
		p.chk.expect(len(items) == g.ServiceMix.Jobs, "service-mix: plan has %d jobs, golden %d", len(items), g.ServiceMix.Jobs)
		p.chk.expect(loadgen.KeyMultisetHash(items) == g.ServiceMix.KeyMultisetHash,
			"service-mix: key multiset hash %s, golden %s", loadgen.KeyMultisetHash(items), g.ServiceMix.KeyMultisetHash)
		p.listRef = g.ServiceMix.ResultListHash
	}
	// The golden probe: a few default-seed keys re-run directly.
	probe, err := probeRuns()
	if err != nil {
		return nil, err
	}
	p.chk.expect(len(probe) == len(g.ServiceMix.Probe), "service-mix: %d probe runs, golden has %d", len(probe), len(g.ServiceMix.Probe))
	for i := range probe {
		if i < len(g.ServiceMix.Probe) {
			p.chk.expect(probe[i] == g.ServiceMix.Probe[i], "service-mix: probe %d got %+v, golden %+v", i, probe[i], g.ServiceMix.Probe[i])
		}
	}
	return p, nil
}

// probeRuns executes the first probeKeys distinct default-seed plan
// items directly through experiment.Run.
func probeRuns() ([]goldenRun, error) {
	items, err := loadgen.Plan(serviceMix(defaultSeed))
	if err != nil {
		return nil, err
	}
	var out []goldenRun
	for _, it := range distinctItems(items)[:probeKeys] {
		o, err := runSim(it.Spec.RunConfig(), nil)
		if err != nil {
			return nil, err
		}
		out = append(out, o.golden)
	}
	return out, nil
}

func distinctItems(items []loadgen.Item) []loadgen.Item {
	seen := map[string]bool{}
	var out []loadgen.Item
	for _, it := range items {
		if !seen[it.Key] {
			seen[it.Key] = true
			out = append(out, it)
		}
	}
	return out
}

// liveService is one pass's pool, server and clients.
type liveService struct {
	dir     string
	pool    *jobqueue.Pool
	srv     *http.Server
	served  chan error
	clients []*client.Client
}

// startService builds a fresh state dir, pool, server and listener, the
// same wiring as peas-serve, and waits until /healthz answers.
func startService(h *passHooks) (*liveService, error) {
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workRoot, "service-mix-*")
	if err != nil {
		return nil, err
	}
	cfg := jobqueue.Config{
		Workers:         serviceWorkers,
		QueueDepth:      serviceQueue,
		CacheCap:        serviceCache,
		StateDir:        dir,
		CheckpointEvery: serviceCkptEvery,
	}
	if h != nil {
		cfg.FS = h.fs
		cfg.Run = h.tally.instrumentedRun
	}
	pool := jobqueue.New(cfg)
	if _, err := pool.Recover(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("recovering fresh state dir: %w", err)
	}
	pool.Start()
	var handler http.Handler = server.New(pool, serviceWorkers)
	if h != nil {
		h.handler.h = handler
		handler = h.handler
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = pool.Shutdown(context.Background())
		os.RemoveAll(dir)
		return nil, err
	}
	s := &liveService{
		dir:    dir,
		pool:   pool,
		srv:    &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	for i := 0; i < serviceClients; i++ {
		s.clients = append(s.clients, client.New(base))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := s.clients[0].Health(ctx); err != nil {
		s.stop()
		return nil, fmt.Errorf("service health check: %w", err)
	}
	return s, nil
}

// stop shuts the server and pool down, waits for both, and removes the
// state dir.
func (s *liveService) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: http shutdown:", err)
	}
	if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "perfbench: http serve:", err)
	}
	if err := s.pool.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: pool shutdown:", err)
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	os.RemoveAll(s.dir)
}

// drive runs the plan with closed-loop clients sharing one cursor.
func (s *liveService) drive(items []loadgen.Item) []jobRecord {
	recs := make([]jobRecord, len(items))
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range s.clients {
		wg.Add(1)
		go func(c *client.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(items) {
					return
				}
				recs[i] = runJob(c, items[i])
			}
		}(c)
	}
	wg.Wait()
	return recs
}

// runJob submits one item and follows its SSE stream to the terminal
// event. Latency is always taken at the terminal event, never by polling.
func runJob(c *client.Client, it loadgen.Item) jobRecord {
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	rec := jobRecord{key: it.Key}
	start := time.Now()
	resp, err := c.Submit(ctx, it.Spec)
	rec.submit = time.Since(start)
	if err != nil {
		rec.failMsg = "submit: " + err.Error()
		return rec
	}
	rec.id, rec.outcome = resp.Job.ID, resp.Outcome

	var final *jobqueue.Event
	var at time.Time
	err = c.Events(ctx, rec.id, func(ev jobqueue.Event) bool {
		if final == nil && isTerminal(ev.Type) {
			at = time.Now()
			final = &ev
		}
		// Read the stream to its end so the connection is reused.
		return true
	})
	if final == nil {
		// The service delivers terminal events best-effort per
		// subscriber; its contract is that the job's state stays
		// readable, so fall back to one GET and count the miss.
		rec.sseMiss = true
		info, ierr := c.Job(ctx, rec.id)
		if ierr != nil {
			rec.failMsg = fmt.Sprintf("events: %v; get: %v", err, ierr)
			return rec
		}
		at = time.Now()
		final = &jobqueue.Event{Type: jobqueue.EventType(info.State), Result: info.Result, Error: info.Error}
	}
	rec.e2e = at.Sub(start)
	switch {
	case final.Type != jobqueue.EventDone:
		rec.failMsg = fmt.Sprintf("terminal %s: %s", final.Type, final.Error)
	case final.Result == nil || final.Result.StateHash == "" || final.Result.Events == 0:
		rec.failMsg = "done without StateHash or event count"
	default:
		rec.hash, rec.events = final.Result.StateHash, final.Result.Events
	}
	return rec
}

func isTerminal(t jobqueue.EventType) bool {
	switch t {
	case jobqueue.EventDone, jobqueue.EventFailed, jobqueue.EventSuspended,
		jobqueue.EventCancelled, jobqueue.EventDeadline:
		return true
	}
	return false
}

// pass runs the plan once against a fresh service and records its
// times scaled to the reference host's speed (calibrate.go). A traced
// pass is profiled from set-up until the plan completes. inspect, when
// set, runs after that and before the service stops.
func (p *servicePasses) pass(h *passHooks, inspect func(*liveService, []jobRecord)) (float64, error) {
	var (
		setup, wall time.Duration
		recs        []jobRecord
		rss         float64
	)
	f, err := p.speed.around(func() error {
		if err := resetPeakRSS(); err != nil {
			return err
		}
		if h != nil {
			if err := h.prof.start(); err != nil {
				return err
			}
		}
		setupStart := time.Now()
		s, err := startService(h)
		if err != nil {
			if h != nil {
				h.prof.pause()
			}
			return err
		}
		setup = time.Since(setupStart)
		start := time.Now()
		recs = s.drive(p.items)
		wall = time.Since(start)
		if rss, err = peakRSSMB(); err != nil {
			s.stop()
			return err
		}
		if h != nil {
			if err := h.prof.pause(); err != nil {
				s.stop()
				return err
			}
		}
		if inspect != nil {
			inspect(s, recs)
		}
		s.stop()
		if h != nil {
			// Drop the handler's reference to this pass's server and
			// pool so the next pass starts from a heap without them.
			h.handler.h = nil
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	p.setup.add(f * setup.Seconds())
	p.wall.add(f * wall.Seconds())
	p.rss.add(rss)
	p.record(recs, f)
	return f * wall.Seconds(), nil
}

// bareSetup starts a fresh service and stops it again, recording the
// scaled set-up time.
func (p *servicePasses) bareSetup() error {
	var setup time.Duration
	f, err := p.speed.around(func() error {
		start := time.Now()
		s, err := startService(nil)
		if err != nil {
			return err
		}
		setup = time.Since(start)
		s.stop()
		return nil
	})
	if err != nil {
		return err
	}
	p.setup.add(f * setup.Seconds())
	return nil
}

// record checks one pass's records and adds their samples, scaled by f.
func (p *servicePasses) record(recs []jobRecord, f float64) {
	var e2e, submit samples
	byKey := map[string]string{}
	for _, r := range recs {
		p.submitted++
		if r.sseMiss {
			p.sseMisses++
		}
		if r.failMsg != "" {
			p.chk.expect(false, "service-mix: key %.12s: %s", r.key, r.failMsg)
			continue
		}
		submit.add(f * r.submit.Seconds())
		e2e.add(f * r.e2e.Seconds())
		byKey[r.key] = r.hash
		if prev, ok := p.results[r.key]; ok {
			p.chk.expect(prev.hash == r.hash && prev.events == r.events,
				"service-mix: key %.12s: duplicate answered %s/%d, earlier %s/%d", r.key, r.hash, r.events, prev.hash, prev.events)
		} else {
			p.results[r.key] = r
		}
	}
	p.e2eP50.add(e2e.median())
	p.submitP50.add(submit.median())
	p.e2e = append(p.e2e, e2e...)
	p.submit = append(p.submit, submit...)
	list := resultListHash(byKey)
	if p.listRef == "" {
		p.listRef = list
	}
	p.chk.expect(list == p.listRef, "service-mix: sorted (key, StateHash) list hash %s, want %s", list, p.listRef)
}

// resultListHash is the hex SHA-256 over the sorted (key, StateHash) list.
func resultListHash(byKey map[string]string) string {
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s %s\n", k, byKey[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// crossCheck re-runs a seeded sample of the plan's keys directly through
// experiment.Run; each must reproduce the service's StateHash and event
// count.
func (p *servicePasses) crossCheck() error {
	distinct := distinctItems(p.items)
	rng := stats.NewRNG(p.seed ^ 0x6a09e667)
	for i := 0; i < crossCheckKeys && len(distinct) > 0; i++ {
		j := rng.Intn(len(distinct))
		it := distinct[j]
		distinct = append(distinct[:j], distinct[j+1:]...)
		// Checkpoint captures schedule engine events of their own, so
		// the direct run captures (and discards) on the pool's cadence
		// for its event count to be comparable.
		cfg := it.Spec.RunConfig()
		cfg.CheckpointEvery = serviceCkptEvery
		cfg.OnCheckpoint = func(*checkpoint.Snapshot) bool { return false }
		o, err := runSim(cfg, nil)
		if err != nil {
			return err
		}
		got, ok := p.results[it.Key]
		p.chk.expect(ok && got.hash == o.golden.StateHash && got.events == o.golden.Events,
			"service-mix: key %.12s: service answered %s/%d, direct run %s/%d",
			it.Key, got.hash, got.events, o.golden.StateHash, o.golden.Events)
	}
	return nil
}

func (p *servicePasses) result() *result {
	return &result{
		Correct:   p.chk.failed == 0,
		Attempted: p.submitted,
		Failed:    p.chk.failed,
	}
}

func (w *serviceWorkload) endToEnd(seed int64, window time.Duration) (*result, error) {
	p, err := w.newPasses(seed)
	if err != nil {
		return nil, err
	}
	if err := timedPasses(window, 3, func() error {
		if _, err := p.pass(nil, nil); err != nil {
			return err
		}
		// A pass sets the service up once; a few bare start/stop cycles
		// after each give setup_s more repetitions, spread over the run.
		for i := 0; i < setupsPerPass; i++ {
			if err := p.bareSetup(); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := p.crossCheck(); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "service-mix: %d submissions, %d latency samples (%d beyond p99), %d SSE terminal events missed\n",
		p.submitted, len(p.e2e), p.e2e.beyond(0.99), p.sseMisses)
	// Every pass runs the same plan on a fresh service; each figure is
	// the median over the passes (of the per-pass medians, for the
	// latencies).
	wall := p.wall.median()
	res := p.result()
	res.Metrics = map[string]metric{
		"wall_s":                {wall, "s"},
		"setup_s":               {p.setup.median(), "s"},
		"peak_rss_mb":           {p.rss.median(), "MB"},
		"jobs_per_s":            {float64(len(p.items)) / wall, "1/s"},
		"job_latency_p50_ms":    {ms(p.e2eP50.median()), "ms"},
		"submit_latency_p50_ms": {ms(p.submitP50.median()), "ms"},
	}
	fmt.Fprintf(os.Stderr, "service-mix: %d passes, %d set-ups, reference loop median %.3f ms (nominal %.3f ms)\n",
		len(p.wall), len(p.setup), ms(p.speed.times.median()), ms(refLoopNominal))
	return res, nil
}

// perLayer runs untraced passes for half the window, then traced
// passes: CPU profile of each pass's set-up and plan, counting run and
// checkpoint hooks, a timing durable.FS and a timing handler around
// server.New.
func (w *serviceWorkload) perLayer(seed int64, window time.Duration) (*result, error) {
	p, err := w.newPasses(seed)
	if err != nil {
		return nil, err
	}
	if err := timedPasses(window/2, 2, func() error {
		_, err := p.pass(nil, nil)
		return err
	}); err != nil {
		return nil, err
	}
	untraced := p.wall.median()
	r := layerReport{
		"untraced.job_latency_p99_ms":    ms(p.e2e.quantile(0.99)),
		"untraced.submit_latency_p99_ms": ms(p.submit.quantile(0.99)),
		"host.ref_loop_ms":               ms(p.speed.times.median()),
	}
	p.speed.times = nil

	var (
		tally     runTally
		mem       memDelta
		fs        = &timingFS{inner: durable.OS{}}
		handler   = &timedHandler{}
		traced    samples
		retained  samples
		queueWait samples
		runDur    samples
		overhead  samples
		outcomes  = map[jobqueue.Outcome]int{}
	)
	prof, err := newCPUProfile()
	if err != nil {
		return nil, err
	}
	hooks := &passHooks{tally: &tally, fs: fs, handler: handler, prof: prof}
	inspect := func(s *liveService, recs []jobRecord) {
		mem.end()
		for _, r := range recs {
			outcomes[r.outcome]++
			if r.outcome != jobqueue.OutcomeAccepted || r.failMsg != "" {
				continue
			}
			job, ok := s.pool.Get(r.id)
			if !ok {
				continue
			}
			enq, started, finished := job.Times()
			queueWait.addDur(started.Sub(enq))
			runDur.addDur(finished.Sub(started))
			overhead.addDur(r.e2e - finished.Sub(enq))
		}
		// Live heap still held by the pool after the plan, per job it
		// tracks: the pool keeps every Job and its Result.
		var after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&after)
		if n := len(s.pool.Jobs()); n > 0 {
			retained.add(float64(after.HeapAlloc-min(after.HeapAlloc, mem.before.HeapAlloc)) / 1024 / float64(n))
		}
	}
	err = timedPasses(window-window/2, 2, func() error {
		mem.begin()
		wall, err := p.pass(hooks, inspect)
		traced.add(wall)
		return err
	})
	cpu, perr := prof.stop()
	if err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, perr
	}
	if err := p.crossCheck(); err != nil {
		return nil, err
	}
	p.chk.expect(tally.transmits == tally.packetsSent,
		"service-mix: OnTransmit hook saw %d frames, medium counted %d", tally.transmits, tally.packetsSent)

	passes := len(traced)
	r.addSimLayers(&tally, cpu, &mem, passes)
	per := func(v int) float64 { return float64(v) / float64(passes) }
	r["jobqueue.retained_kb_per_job"] = retained.median()
	r["jobqueue.overhead_p50_ms"] = ms(overhead.quantile(0.5))
	r["jobqueue.queue_wait_p50_ms"] = ms(queueWait.quantile(0.5))
	r["jobqueue.queue_wait_p99_ms"] = ms(queueWait.quantile(0.99))
	r["jobqueue.run_p50_ms"] = ms(runDur.quantile(0.5))
	r["jobqueue.accepted"] = per(outcomes[jobqueue.OutcomeAccepted])
	r["jobqueue.cached"] = per(outcomes[jobqueue.OutcomeCached])
	r["jobqueue.coalesced"] = per(outcomes[jobqueue.OutcomeCoalesced])
	r["jobqueue.cache_hit_ratio"] = float64(outcomes[jobqueue.OutcomeCached]) / float64(passes*len(p.items))
	r["durable.fsyncs"] = per(len(fs.fsyncs))
	r["durable.fsync_p50_ms"] = ms(fs.fsyncs.quantile(0.5))
	r["durable.fsync_p99_ms"] = ms(fs.fsyncs.quantile(0.99))
	r["durable.busy_ms"] = ms(fs.busy.Seconds()) / float64(passes)
	r["server.submit_handler_p50_ms"] = ms(handler.submit.quantile(0.5))
	r["trace.overhead_ratio"] = traced.median() / untraced
	res := p.result()
	res.Metrics = r.metrics()
	return res, nil
}

// golden computes the service-mix entry at the default seed. The result
// list hash comes from direct experiment.Run executions of every
// distinct key, so the service is pinned to the simulator's answers.
func (w *serviceWorkload) golden() (goldenService, error) {
	items, err := loadgen.Plan(serviceMix(defaultSeed))
	if err != nil {
		return goldenService{}, err
	}
	byKey := map[string]string{}
	for _, it := range distinctItems(items) {
		o, err := runSim(it.Spec.RunConfig(), nil)
		if err != nil {
			return goldenService{}, err
		}
		byKey[it.Key] = o.golden.StateHash
	}
	probe, err := probeRuns()
	if err != nil {
		return goldenService{}, err
	}
	return goldenService{
		Jobs:            len(items),
		KeyMultisetHash: loadgen.KeyMultisetHash(items),
		ResultListHash:  resultListHash(byKey),
		Probe:           probe,
	}, nil
}

// timingFS wraps the state store's filesystem, timing every operation
// and every fsync (file Sync and SyncDir).
type timingFS struct {
	inner  durable.FS
	mu     sync.Mutex
	fsyncs samples
	busy   time.Duration
}

func (f *timingFS) note(start time.Time, fsync bool) {
	d := time.Since(start)
	f.mu.Lock()
	f.busy += d
	if fsync {
		f.fsyncs.addDur(d)
	}
	f.mu.Unlock()
}

func (f *timingFS) MkdirAll(dir string) error {
	defer f.note(time.Now(), false)
	return f.inner.MkdirAll(dir)
}

func (f *timingFS) Create(name string) (durable.File, error) {
	defer f.note(time.Now(), false)
	file, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: file, fs: f}, nil
}

func (f *timingFS) ReadFile(name string) ([]byte, error) {
	defer f.note(time.Now(), false)
	return f.inner.ReadFile(name)
}

func (f *timingFS) Rename(oldpath, newpath string) error {
	defer f.note(time.Now(), false)
	return f.inner.Rename(oldpath, newpath)
}

func (f *timingFS) Remove(name string) error {
	defer f.note(time.Now(), false)
	return f.inner.Remove(name)
}

func (f *timingFS) ReadDir(dir string) ([]os.DirEntry, error) {
	defer f.note(time.Now(), false)
	return f.inner.ReadDir(dir)
}

func (f *timingFS) SyncDir(dir string) error {
	defer f.note(time.Now(), true)
	return f.inner.SyncDir(dir)
}

type timingFile struct {
	durable.File
	fs *timingFS
}

func (w *timingFile) Write(b []byte) (int, error) {
	defer w.fs.note(time.Now(), false)
	return w.File.Write(b)
}

func (w *timingFile) Sync() error {
	defer w.fs.note(time.Now(), true)
	return w.File.Sync()
}

func (w *timingFile) Close() error {
	defer w.fs.note(time.Now(), false)
	return w.File.Close()
}

// timedHandler wraps the server's handler and times job submissions.
type timedHandler struct {
	h      http.Handler
	mu     sync.Mutex
	submit samples
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost || r.URL.Path != "/api/v1/jobs" {
		t.h.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	t.h.ServeHTTP(w, r)
	d := time.Since(start)
	t.mu.Lock()
	t.submit.addDur(d)
	t.mu.Unlock()
}
