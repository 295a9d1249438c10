package jobqueue

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"peas/internal/checkpoint"
	"peas/internal/durable"
	"peas/internal/experiment"
	"peas/internal/metrics"
	"peas/internal/node"
	"peas/internal/oracle"
	"peas/internal/perf"
	"peas/internal/sim"
)

// RunStats and DeploymentSweepResult are re-exported so service wire
// types do not force every client onto internal/experiment directly.
type (
	RunStats              = experiment.RunStats
	DeploymentSweepResult = experiment.DeploymentSweepResult
)

// RunFunc executes one simulation. The pool defaults to experiment.Run;
// tests substitute instrumented wrappers (e.g. to count underlying
// executions for the singleflight guarantee).
type RunFunc func(cfg experiment.RunConfig) (*experiment.RunStats, error)

// Config configures a Pool.
type Config struct {
	// Workers bounds concurrent runs (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds jobs admitted but not yet running (0 = 64).
	// When the queue is full Submit fails fast with *QueueFullError.
	QueueDepth int
	// CacheCap bounds the result cache (0 = 1024); the oldest entry is
	// evicted first.
	CacheCap int
	// StateDir, when non-empty, enables persistence: specs are written
	// at admission and drain checkpoints at shutdown, so Recover can
	// resume interrupted work after a restart.
	StateDir string
	// CheckpointEvery is the drain-checkpoint cadence in simulated
	// seconds (0 = 250). Only meaningful with StateDir.
	CheckpointEvery float64
	// FS substitutes the filesystem the state store writes through
	// (nil = the real one). Tests inject a durable.FaultFS to exercise
	// ENOSPC, torn writes and crash points; peas-serve injects a slowed
	// FS under -durable-delay so the crash-soak harness can land SIGKILLs
	// inside write windows.
	FS durable.FS
	// Run substitutes the simulation executor (nil = experiment.Run).
	Run RunFunc
	// Counters receives the pool's operational counters; one fresh set
	// is allocated when nil. It is shared across all workers, which is
	// safe because metrics.Counters synchronizes internally.
	Counters *metrics.Counters
	// BeforeRun, when non-nil, runs on the worker goroutine after a job
	// is dequeued and before its simulation starts. Tests use it to
	// hold workers at a barrier.
	BeforeRun func(j *Job)
	// StallWindow enables watchdog stall detection: a running supervised
	// job whose engine heartbeat does not advance for this long is
	// preempted into the suspended state (0 disables stall detection;
	// deadline enforcement is always on). Sweep jobs aggregate many runs
	// without a single engine heartbeat and are exempt.
	StallWindow time.Duration
	// WatchdogInterval overrides the supervision scan cadence (0 = auto:
	// 100ms, or StallWindow/4 when that is shorter, floored at 10ms).
	WatchdogInterval time.Duration
}

// QueueFullError is the admission-control rejection: the queue is at
// capacity and the caller should retry after the suggested delay. The
// HTTP layer maps it to 429 with a Retry-After header.
type QueueFullError struct {
	// Depth is the queue capacity that was exhausted.
	Depth int
	// RetryAfter is the suggested backoff, derived from the observed
	// mean job wall time and the worker count.
	RetryAfter time.Duration
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("jobqueue: queue full (%d queued); retry after %s", e.Depth, e.RetryAfter)
}

// ErrShuttingDown rejects submissions during a drain.
var errShuttingDown = fmt.Errorf("jobqueue: shutting down")

// PersistError is the admission-time durability rejection: the pool
// could not fsync the job's spec to the state store, so accepting the
// job would promise a recovery guarantee it cannot keep. The submission
// is rolled back and the caller should retry once the disk recovers
// (the HTTP layer maps it to 503 with a Retry-After header). Unwrap
// exposes the underlying disk error (e.g. ENOSPC).
type PersistError struct {
	Err error
}

func (e *PersistError) Error() string {
	return fmt.Sprintf("jobqueue: cannot persist job spec: %v", e.Err)
}

func (e *PersistError) Unwrap() error { return e.Err }

// DeadlineInfeasibleError is the deadline-aware admission rejection: the
// observed queue-wait distribution says the job would blow its
// DeadlineSeconds budget before a worker even picks it up, so admitting
// it would only burn a queue slot on doomed work. The HTTP layer maps it
// to 429 with a Retry-After header, like QueueFullError.
type DeadlineInfeasibleError struct {
	// DeadlineSeconds is the budget the submission carried.
	DeadlineSeconds float64
	// EstimatedWait is the queue-wait estimate that exceeded it.
	EstimatedWait time.Duration
	// RetryAfter is the suggested backoff.
	RetryAfter time.Duration
}

func (e *DeadlineInfeasibleError) Error() string {
	return fmt.Sprintf("jobqueue: %gs deadline infeasible (estimated queue wait %s); retry after %s",
		e.DeadlineSeconds, e.EstimatedWait, e.RetryAfter)
}

// Outcome reports how a submission was satisfied.
type Outcome string

const (
	// OutcomeAccepted: a new underlying run was queued.
	OutcomeAccepted Outcome = "accepted"
	// OutcomeCoalesced: an identical run is already queued or running;
	// the submission attached to it (same job ID).
	OutcomeCoalesced Outcome = "coalesced"
	// OutcomeCached: the result was served from the content-addressed
	// cache; the returned job is already done.
	OutcomeCached Outcome = "cached"
)

// Stats is a point-in-time view of the pool for /metrics.
type Stats struct {
	QueueDepth       int
	InFlight         int
	CacheEntries     int
	WallSecondsTotal float64
	Counters         map[string]uint64
}

// Pool is the worker pool plus queue, coalescing index and result cache.
type Pool struct {
	cfg      Config
	run      RunFunc
	counters *metrics.Counters

	// queueWait observes admission-to-dequeue delay per executed job;
	// runDur observes worker wall time per run. Both are histograms so
	// the service can report tail latency (p99), not just totals.
	queueWait *metrics.Histogram
	runDur    *metrics.Histogram

	queue chan *Job
	quit  chan struct{}
	wg    sync.WaitGroup

	// drainStop asks running jobs to stop at their next cooperative
	// boundary (checkpoint capture or coverage sample).
	drainStop atomic.Bool

	mu        sync.Mutex
	accepting bool
	seq       int
	jobs      map[string]*Job
	order     []string        // job IDs in admission order
	inflight  map[string]*Job // spec key -> queued/running job
	cache     map[string]*Result
	cacheSeq  []string // cache keys in insertion order, for eviction
	queued    int
	running   int
	wallTotal float64

	// parked holds resumable checkpoints left by cancelled/deadline-
	// killed runs, indexed by content key: a later submission of the
	// same spec claims the snapshot and continues where the preempted
	// run stopped, bit-exactly. Bounded like the cache (CacheCap, FIFO).
	parked    map[string]*parkedEntry
	parkedSeq []string
}

// parkedEntry is one preempted run's leftover: the snapshot plus the job
// ID its on-disk spec/checkpoint files are filed under.
type parkedEntry struct {
	id   string
	snap *checkpoint.Snapshot
}

// New builds a pool. Call Start to launch the workers.
func New(cfg Config) *Pool {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.CacheCap <= 0 {
		cfg.CacheCap = 1024
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 250
	}
	run := cfg.Run
	if run == nil {
		run = experiment.Run
	}
	counters := cfg.Counters
	if counters == nil {
		counters = metrics.NewCounters()
	}
	return &Pool{
		cfg:       cfg,
		run:       run,
		counters:  counters,
		queueWait: metrics.NewHistogram(),
		runDur:    metrics.NewHistogram(),
		queue:     make(chan *Job, cfg.QueueDepth),
		quit:      make(chan struct{}),
		accepting: true,
		jobs:      make(map[string]*Job),
		inflight:  make(map[string]*Job),
		cache:     make(map[string]*Result),
		parked:    make(map[string]*parkedEntry),
	}
}

// Start launches the worker goroutines and the watchdog.
func (p *Pool) Start() {
	for i := 0; i < p.cfg.Workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	p.wg.Add(1)
	go p.watchdog()
}

// Counters exposes the shared operational counter set.
func (p *Pool) Counters() *metrics.Counters { return p.counters }

// QueueWait exposes the queue-wait histogram: seconds between a job's
// admission and a worker dequeuing it. Cached submissions never queue
// and are not observed.
func (p *Pool) QueueWait() *metrics.Histogram { return p.queueWait }

// RunDuration exposes the run-duration histogram: worker wall seconds
// per executed job (including suspended and failed runs).
func (p *Pool) RunDuration() *metrics.Histogram { return p.runDur }

// Submit admits a job. The spec is normalized in place; invalid specs
// fail immediately. Identical in-flight submissions coalesce onto the
// existing job, completed ones are served from the cache, and a full
// queue rejects with *QueueFullError.
func (p *Pool) Submit(spec *Spec) (*Job, Outcome, error) {
	if err := spec.Normalize(); err != nil {
		return nil, "", err
	}
	key := spec.Key()
	now := time.Now()

	p.mu.Lock()
	if !p.accepting {
		p.mu.Unlock()
		return nil, "", errShuttingDown
	}
	p.counters.Add("jobs_submitted", 1)

	if res, ok := p.cache[key]; ok {
		job := p.newJobLocked(key, spec, now)
		p.mu.Unlock()
		p.counters.Add("cache_hits", 1)
		job.publishTerminal(StateDone, res, nil, now)
		return job, OutcomeCached, nil
	}
	if primary, ok := p.inflight[key]; ok {
		p.mu.Unlock()
		p.counters.Add("jobs_coalesced", 1)
		return primary, OutcomeCoalesced, nil
	}
	p.counters.Add("cache_misses", 1)

	if p.queued >= p.cfg.QueueDepth {
		retry := p.retryAfterLocked()
		p.mu.Unlock()
		return nil, "", &QueueFullError{Depth: p.cfg.QueueDepth, RetryAfter: retry}
	}
	if wait, infeasible := p.deadlineInfeasibleLocked(spec.DeadlineSeconds); infeasible {
		retry := p.retryAfterLocked()
		p.counters.Add("deadline_rejected", 1)
		p.mu.Unlock()
		return nil, "", &DeadlineInfeasibleError{
			DeadlineSeconds: spec.DeadlineSeconds,
			EstimatedWait:   wait,
			RetryAfter:      retry,
		}
	}
	job := p.newJobLocked(key, spec, now)
	p.inflight[key] = job
	p.queued++
	// A parked checkpoint from a cancelled/deadline-killed run of this
	// exact spec is claimed here: the new job resumes where the preempted
	// one stopped instead of restarting. Determinism makes the splice
	// invisible — the final StateHash is the uninterrupted run's.
	var claimed *parkedEntry
	if ent, ok := p.parked[key]; ok {
		delete(p.parked, key)
		for i, k := range p.parkedSeq {
			if k == key {
				p.parkedSeq = append(p.parkedSeq[:i], p.parkedSeq[i+1:]...)
				break
			}
		}
		claimed = ent
		job.resume = ent.snap
	}
	p.mu.Unlock()

	// Persist BEFORE the job becomes runnable. Accepted must mean
	// recoverable: once a worker can dequeue the job, a crash has to find
	// its spec on disk, so a persistence failure rolls the admission back
	// and rejects with *PersistError instead of accepting work that a
	// crash would silently lose.
	if err := p.persistSpec(job); err != nil {
		p.counters.Add("persist_errors", 1)
		p.rollbackAdmission(job, err)
		return nil, "", &PersistError{Err: err}
	}
	if claimed != nil {
		// Re-home the claimed snapshot under the new job's ID. Best
		// effort: if the copy fails, a crash loses only the resume
		// optimization — the new spec restarts from scratch and, by
		// determinism, still produces the identical result.
		if job.resume != nil && p.cfg.StateDir != "" {
			if err := p.persistSnapshot(job, job.resume); err != nil {
				p.counters.Add("persist_errors", 1)
			}
		}
		p.removeJobFiles(claimed.id)
		p.counters.Add("parked_resumed", 1)
	}
	p.queue <- job // cannot block: queued < QueueDepth is checked under mu
	return job, OutcomeAccepted, nil
}

// deadlineInfeasibleLocked estimates (under p.mu) whether a job with the
// given deadline budget could plausibly start in time. With an empty
// queue any deadline is feasible — a worker reaches the job next. With a
// backlog, the median of the observed queue-wait histogram is the
// estimate; it needs a minimum sample count so a cold service never
// rejects on noise.
func (p *Pool) deadlineInfeasibleLocked(deadlineSeconds float64) (time.Duration, bool) {
	if deadlineSeconds <= 0 || p.queued == 0 {
		return 0, false
	}
	const minSamples = 8
	if p.queueWait.Count() < minSamples {
		return 0, false
	}
	wait := p.queueWait.Quantile(0.5)
	if wait > deadlineSeconds {
		return time.Duration(wait * float64(time.Second)), true
	}
	return 0, false
}

// rollbackAdmission withdraws a job that was registered but never made
// runnable. Coalesced submissions may have attached to it during the
// unlocked persist window, so the job is failed (resolving any waiters)
// once its index entries are gone.
func (p *Pool) rollbackAdmission(job *Job, cause error) {
	p.mu.Lock()
	if p.inflight[job.Key] == job {
		delete(p.inflight, job.Key)
	}
	delete(p.jobs, job.ID)
	for i := len(p.order) - 1; i >= 0; i-- {
		if p.order[i] == job.ID {
			p.order = append(p.order[:i], p.order[i+1:]...)
			break
		}
	}
	p.queued--
	p.mu.Unlock()
	job.publishTerminal(StateFailed, nil, &PersistError{Err: cause}, time.Now())
}

// newJobLocked allocates and registers a job record.
func (p *Pool) newJobLocked(key string, spec *Spec, now time.Time) *Job {
	p.seq++
	job := newJob(fmt.Sprintf("j-%06d", p.seq), key, spec, now)
	p.jobs[job.ID] = job
	p.order = append(p.order, job.ID)
	return job
}

// retryAfterLocked estimates when a queue slot should free: the mean
// observed job wall time scaled by the queue backlog per worker.
func (p *Pool) retryAfterLocked() time.Duration {
	mean := 2 * time.Second
	if done := p.counters.Get("runs_executed"); done > 0 && p.wallTotal > 0 {
		mean = time.Duration(p.wallTotal / float64(done) * float64(time.Second))
	}
	per := float64(p.queued+1) / float64(p.cfg.Workers)
	d := time.Duration(math.Ceil(per)) * mean
	if d < time.Second {
		d = time.Second
	}
	if d > time.Minute {
		d = time.Minute
	}
	return d
}

// Cancel requests cancellation of a job by ID. Unknown IDs report found
// false. Queued jobs transition to cancelled immediately; running jobs
// are preempted at the engine's next supervisor poll (checkpointable
// runs park a resumable snapshot first) and reach cancelled when the
// worker acknowledges; terminal jobs are left untouched (requested
// false). Cancellation is best-effort by design: a job that finishes
// before the preemption lands stays done.
func (p *Pool) Cancel(id string) (job *Job, found, requested bool) {
	p.mu.Lock()
	j, ok := p.jobs[id]
	p.mu.Unlock()
	if !ok {
		return nil, false, false
	}
	return j, true, p.stop(j, CauseCancel)
}

// stop routes a stop request to a job. A job stopped while still queued
// never reaches a worker, so it is terminated here, as a run preempted
// before its first event.
func (p *Pool) stop(j *Job, cause CancelCause) bool {
	queued, effective := j.requestStop(cause)
	if queued {
		p.terminate(j, p.decide(j, runEnd{err: errPreempted, cause: cause}), nil, nil, 0)
	}
	return effective
}

// watchdog is the supervision loop: on every tick it enforces deadline
// budgets on queued and running jobs and, when a stall window is
// configured, preempts running jobs whose engine heartbeat stopped
// advancing. It exits with the workers on Shutdown.
func (p *Pool) watchdog() {
	defer p.wg.Done()
	interval := p.cfg.WatchdogInterval
	if interval <= 0 {
		interval = 100 * time.Millisecond
		if w := p.cfg.StallWindow; w > 0 && w/4 < interval {
			interval = w / 4
		}
		if interval < 10*time.Millisecond {
			interval = 10 * time.Millisecond
		}
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-p.quit:
			return
		case now := <-tick.C:
			p.superviseOnce(now)
		}
	}
}

// superviseOnce runs one watchdog scan over the non-terminal jobs (the
// coalescing index holds exactly those).
func (p *Pool) superviseOnce(now time.Time) {
	p.mu.Lock()
	active := make([]*Job, 0, len(p.inflight))
	for _, j := range p.inflight {
		active = append(active, j)
	}
	p.mu.Unlock()
	for _, j := range active {
		if at, ok := j.Deadline(); ok && now.After(at) {
			p.stop(j, CauseDeadline)
			continue
		}
		if w := p.cfg.StallWindow; w > 0 && j.checkStall(now, w) {
			p.counters.Add("watchdog_stalls", 1)
		}
	}
}

// Get returns a job by ID.
func (p *Pool) Get(id string) (*Job, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.jobs[id]
	return j, ok
}

// Jobs returns every tracked job in admission order.
func (p *Pool) Jobs() []*Job {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Job, 0, len(p.order))
	for _, id := range p.order {
		out = append(out, p.jobs[id])
	}
	return out
}

// CachedResult returns the cached result for a content key.
func (p *Pool) CachedResult(key string) (*Result, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	res, ok := p.cache[key]
	return res, ok
}

// Stats returns the operational gauges and counter snapshot.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		QueueDepth:       p.queued,
		InFlight:         p.running,
		CacheEntries:     len(p.cache),
		WallSecondsTotal: p.wallTotal,
		Counters:         p.counters.Snapshot(),
	}
}

// Shutdown drains the pool: no new submissions are accepted, idle
// workers exit, and running jobs get until ctx's deadline to finish.
// Past the deadline, runs are asked to stop at their next cooperative
// boundary — jobs with persistence suspend with an on-disk checkpoint
// (resumable via Recover after a restart), the rest fail. Shutdown
// returns once every worker has exited.
func (p *Pool) Shutdown(ctx context.Context) error {
	p.mu.Lock()
	if !p.accepting {
		p.mu.Unlock()
		return errShuttingDown
	}
	p.accepting = false
	p.mu.Unlock()
	close(p.quit)

	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		p.drainStop.Store(true)
		<-done
		return ctx.Err()
	}
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		// Prefer quitting over picking up more queued work, so a drain
		// leaves not-yet-started jobs persisted instead of racing them
		// against the deadline.
		select {
		case <-p.quit:
			return
		default:
		}
		select {
		case <-p.quit:
			return
		case job := <-p.queue:
			p.execute(job)
		}
	}
}

// execute runs one job end to end on the calling worker goroutine.
func (p *Pool) execute(job *Job) {
	p.mu.Lock()
	p.queued--
	p.running++
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.running--
		p.mu.Unlock()
	}()

	if p.cfg.BeforeRun != nil {
		p.cfg.BeforeRun(job)
	}
	dequeued := time.Now()
	if !job.beginRun(dequeued) {
		return // stopped while queued: the stop terminated it
	}
	if enq, _, _ := job.Times(); !enq.IsZero() {
		p.queueWait.Observe(dequeued.Sub(enq).Seconds())
	}

	start := time.Now()
	res, snap, err := p.runGuarded(job)
	wall := time.Since(start).Seconds()
	p.runDur.Observe(wall)
	if res != nil {
		res.WallSeconds = wall
	}
	end := runEnd{result: res != nil, snap: snap != nil, err: err, cause: job.stopCause()}
	p.terminate(job, p.decide(job, end), res, snap, wall)
}

// diskAction is what a terminal transition does to the job's files.
type diskAction int

const (
	// diskKeep leaves the spec (and any older checkpoint): Recover
	// restarts or resumes the job.
	diskKeep diskAction = iota
	// diskRemove deletes the job's files: it never runs again.
	diskRemove
	// diskPark rewrites them as a Parked spec + checkpoint pair, claimable
	// by a resubmission of the same spec but never re-enqueued.
	diskPark
	// diskCheckpoint writes the checkpoint beside the spec: Recover
	// resumes from it.
	diskCheckpoint
)

// runEnd is how a run came back; with the job's Spec.Hang and the pool's
// state dir it is everything decide looks at.
type runEnd struct {
	result bool        // the run completed with a result
	snap   bool        // the run left a checkpoint (drain or preemption)
	err    error       // nil, errAbortRestartable, errPreempted or a failure
	cause  CancelCause // the first stop request ("" when none)
}

// outcome is one row of the terminal decision table.
type outcome struct {
	state    State
	disk     diskAction
	counters []string
	err      error // the terminal error (nil for done and suspended)
}

// decide maps how a run ended to its terminal outcome. A completed
// result always wins: a stop that lands after the last event is a no-op,
// not a retroactive kill. Otherwise a checkpoint in hand is parked on a
// cancel or deadline and written for a restart on a drain or watchdog
// stall; a run with nothing to show is suspended when its spec can
// restart it and removed otherwise. DESIGN.md §15 carries the table.
func (p *Pool) decide(job *Job, e runEnd) outcome {
	stopped := func(c CancelCause) outcome {
		if c == CauseDeadline {
			return outcome{StateDeadline, diskRemove, []string{"jobs_deadline_exceeded"},
				fmt.Errorf("jobqueue: job %s exceeded its %gs deadline", job.ID, job.Spec.DeadlineSeconds)}
		}
		return outcome{StateCancelled, diskRemove, []string{"jobs_cancelled"},
			fmt.Errorf("jobqueue: job %s cancelled", job.ID)}
	}
	suspended := outcome{state: StateSuspended, disk: diskKeep, counters: []string{"jobs_suspended"}}
	switch {
	case e.result:
		return outcome{state: StateDone, disk: diskRemove, counters: []string{"jobs_completed", "runs_executed"}}
	case e.snap && (e.cause == CauseCancel || e.cause == CauseDeadline):
		out := stopped(e.cause)
		out.disk = diskPark
		out.counters = append(out.counters, "jobs_parked")
		return out
	case e.snap:
		// A drain checkpoint, or a watchdog stall caught at a checkpoint.
		// A failed write still suspends: the spec restarts the job.
		suspended.disk = diskCheckpoint
		if e.cause == CauseWatchdog {
			suspended.counters = append(suspended.counters, "watchdog_preemptions")
		}
		return suspended
	case e.err == errAbortRestartable:
		return suspended // a drained chaos run: the spec restarts it
	case e.err == errPreempted && e.cause == CauseWatchdog:
		if p.cfg.StateDir != "" && !job.Spec.Hang {
			suspended.counters = append(suspended.counters, "watchdog_preemptions")
			return suspended
		}
		return outcome{StateFailed, diskRemove, []string{"jobs_failed", "watchdog_preemptions"},
			fmt.Errorf("jobqueue: job %s preempted by watchdog: no event progress within %s", job.ID, p.cfg.StallWindow)}
	case e.err == errPreempted:
		return stopped(e.cause)
	case e.err != nil:
		return outcome{StateFailed, diskRemove, []string{"jobs_failed"}, e.err}
	default:
		// Only reachable through a bug; fail loudly rather than wedge waiters.
		return outcome{StateFailed, diskRemove, []string{"jobs_failed"},
			fmt.Errorf("jobqueue: job %s produced no outcome", job.ID)}
	}
}

// terminate moves a job to its decided outcome, always in this order:
// durable side effects, then the index and cache, then counters, then
// publish. Publishing last means that once a waiter sees the terminal
// state, the job's files already say the same (a crash cannot rerun a
// job a client saw finish) and a resubmission already hits the cache or
// the park index instead of coalescing onto the finished job.
func (p *Pool) terminate(job *Job, out outcome, res *Result, snap *checkpoint.Snapshot, wall float64) {
	counters := out.counters
	switch out.disk {
	case diskRemove:
		p.removeJobFiles(job.ID)
	case diskPark:
		if err := p.persistPark(job, snap); err != nil {
			// Drop the half-written pair so a restart cannot see it; the
			// in-memory entry still serves resubmissions until a crash.
			counters = append(counters, "persist_errors")
			p.removeJobFiles(job.ID)
		}
	case diskCheckpoint:
		if err := p.persistSnapshot(job, snap); err != nil {
			counters = append(counters, "persist_errors")
		}
	}
	p.finishJob(job, res, wall)
	if out.disk == diskPark && !p.addParked(job.Key, job.ID, snap) {
		counters = append(counters, "parked_evicted")
	}
	for _, c := range counters {
		p.counters.Add(c, 1)
	}
	job.publishTerminal(out.state, res, out.err, time.Now())
}

// addParked files a preempted run's snapshot under its content key in
// the park index, a FIFO bounded by CacheCap like the cache, and removes
// the files of every entry it drops: the oldest past the cap, or the
// newcomer itself when its key is already parked (the older entry is
// kept). It reports whether the newcomer was indexed.
func (p *Pool) addParked(key, id string, snap *checkpoint.Snapshot) bool {
	var evicted []string
	p.mu.Lock()
	_, dup := p.parked[key]
	if !dup {
		p.parked[key] = &parkedEntry{id: id, snap: snap}
		p.parkedSeq = append(p.parkedSeq, key)
		for len(p.parkedSeq) > p.cfg.CacheCap {
			old := p.parkedSeq[0]
			p.parkedSeq = p.parkedSeq[1:]
			if ent, ok := p.parked[old]; ok {
				evicted = append(evicted, ent.id)
				delete(p.parked, old)
			}
		}
	}
	p.mu.Unlock()
	if dup {
		p.removeJobFiles(id)
	}
	for _, eid := range evicted {
		p.counters.Add("parked_evicted", 1)
		p.removeJobFiles(eid)
	}
	return !dup
}

// runGuarded dispatches the job to its executor behind a panic
// barrier. A panicking run — a simulation bug, a poisoned spec, the
// injected Spec.Panic fault — must cost exactly one job, not the
// worker goroutine (an unrecovered panic would kill the whole daemon):
// the job fails with the stack in its error, and the pool keeps
// serving.
func (p *Pool) runGuarded(job *Job) (res *Result, snap *checkpoint.Snapshot, err error) {
	defer func() {
		if r := recover(); r != nil {
			p.counters.Add("jobs_panicked", 1)
			res, snap = nil, nil
			err = fmt.Errorf("jobqueue: job panicked: %v\n%s", r, debug.Stack())
		}
	}()
	if job.Spec.Panic {
		panic("injected panic (spec.panic): crash-soak panic-isolation probe")
	}
	if job.Spec.Hang {
		return p.hangProbe(job)
	}
	switch job.Spec.Kind {
	case KindSweep:
		res, err = p.executeSweep(job)
	default:
		res, snap, err = p.executeRun(job)
	}
	return res, snap, err
}

// hangProbe is the injected stall fault: the worker occupies its slot
// making no event progress — the supervisor's heartbeat never advances —
// until the watchdog (or a cancel/deadline/drain) stops it. It models
// the recoverable half of "stuck worker": model code that still reaches
// the cooperative poll boundary without progressing. A callback that
// never yields at all cannot be preempted in-process — the watchdog can
// only detect it (see DESIGN.md §15).
func (p *Pool) hangProbe(job *Job) (*Result, *checkpoint.Snapshot, error) {
	super := &sim.Supervisor{}
	job.attachSupervisor(super)
	for !super.Stop.Load() {
		if p.drainStop.Load() {
			return nil, nil, errAbortRestartable
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil, nil, errPreempted
}

// finishJob updates the shared indexes after a terminal transition:
// the in-flight (coalescing) entry is released, and successful results
// enter the content-addressed cache.
func (p *Pool) finishJob(job *Job, res *Result, wall float64) {
	p.mu.Lock()
	if p.inflight[job.Key] == job {
		delete(p.inflight, job.Key)
	}
	p.wallTotal += wall
	if res != nil {
		if _, ok := p.cache[job.Key]; !ok {
			p.cache[job.Key] = res
			p.cacheSeq = append(p.cacheSeq, job.Key)
			for len(p.cacheSeq) > p.cfg.CacheCap {
				evict := p.cacheSeq[0]
				p.cacheSeq = p.cacheSeq[1:]
				delete(p.cache, evict)
				p.counters.Add("cache_evictions", 1)
			}
		}
	}
	p.mu.Unlock()
}

// executeRun performs a sim or chaos job. It returns a non-nil snapshot
// when the run was suspended at a drain checkpoint instead of finishing.
func (p *Pool) executeRun(job *Job) (*Result, *checkpoint.Snapshot, error) {
	spec := job.Spec
	cfg := spec.RunConfig()

	job.mu.Lock()
	resume := job.resume
	job.mu.Unlock()
	if resume != nil {
		cfg.Resume = resume
	}

	var (
		eng     *sim.Engine
		checker *oracle.Checker
		aborted atomic.Bool
		snap    *checkpoint.Snapshot
		presnap *checkpoint.Snapshot
	)
	cfg.OnNetwork = func(net *node.Network) {
		eng = net.Engine
		if spec.Check {
			checker = oracle.Attach(net, oracle.DefaultConfig())
		}
	}
	// The supervisor is the cancel/deadline/watchdog control surface of
	// the run: the engine heartbeats through it and honors its stop flag
	// at the next poll boundary.
	super := &sim.Supervisor{}
	job.attachSupervisor(super)
	cfg.Supervisor = super
	checkpointable := p.cfg.StateDir != "" && spec.Kind != KindChaos
	cfg.OnSample = func(t float64, working int, _ []float64) {
		job.observeProgress(t, working)
		// Non-checkpointable runs stop cooperatively at a coverage
		// sample when a drain passes its deadline; checkpointable runs
		// wait for the next capture boundary so they resume cleanly.
		if !checkpointable && p.drainStop.Load() && eng != nil {
			aborted.Store(true)
			eng.Stop()
		}
	}
	if checkpointable {
		cfg.CheckpointEvery = p.cfg.CheckpointEvery
		cfg.OnCheckpoint = func(s *checkpoint.Snapshot) bool {
			if !p.drainStop.Load() {
				return false
			}
			snap = s
			return true
		}
		// A supervisor preemption captures at the stop point, so the
		// interrupted work is parked or suspended, never discarded.
		cfg.OnPreempt = func(s *checkpoint.Snapshot) { presnap = s }
	}

	var meter perf.AllocMeter
	meter.Start()
	stats, err := p.run(cfg)
	if err != nil {
		return nil, nil, err
	}
	allocs := meter.Allocs()
	if snap != nil {
		return nil, snap, nil
	}
	if presnap != nil {
		return nil, presnap, nil
	}
	if stats.Preempted {
		// Preempted but nothing to capture (chaos or no state dir).
		return nil, nil, errPreempted
	}
	if aborted.Load() {
		if p.cfg.StateDir != "" {
			// The spec file is still on disk; Recover restarts the job
			// from scratch (chaos state cannot checkpoint).
			return nil, nil, errAbortRestartable
		}
		return nil, nil, fmt.Errorf("jobqueue: job aborted by shutdown before completion")
	}

	res := &Result{Stats: stats, Chaos: stats.Chaos, Resumed: resume != nil}
	if stats.FinalState != nil {
		res.StateHash = stats.FinalState.StateHashHex()
	}
	if eng != nil {
		res.Events = eng.Executed()
		if res.Events > 0 {
			res.AllocsPerEvent = float64(allocs) / float64(res.Events)
		}
		p.counters.Add("engine_events", res.Events)
		p.counters.Add("heap_allocs", allocs)
	}
	if checker != nil {
		res.Violations = len(checker.Violations()) + checker.Dropped()
		if cerr := checker.Err(); cerr != nil {
			return nil, nil, fmt.Errorf("jobqueue: invariant oracle: %w", cerr)
		}
	}
	return res, nil, nil
}

// errAbortRestartable marks a chaos run interrupted by a drain whose
// spec remains persisted; decide maps it to the suspended state.
var errAbortRestartable = fmt.Errorf("jobqueue: aborted by shutdown; restartable from spec")

// errPreempted marks a run stopped by its supervisor without a
// checkpoint to show for it; decide maps it to a terminal state by the
// job's recorded stop cause.
var errPreempted = fmt.Errorf("jobqueue: preempted by supervisor")

// executeSweep performs a sweep job via the §5.2 deployment sweep.
// Sweeps aggregate many runs, so they report no single StateHash and do
// not participate in drain checkpointing — a drain waits for them.
func (p *Pool) executeSweep(job *Job) (*Result, error) {
	spec := job.Spec
	res, err := experiment.DeploymentSweep(experiment.Options{
		Runs:        spec.Sweep.Runs,
		Seed:        spec.Network.Seed,
		Deployments: spec.Sweep.Deployments,
		Forwarding:  spec.Forwarding,
		// One sweep cell at a time: concurrency is the pool's job.
		Parallel: 1,
	})
	if err != nil {
		return nil, err
	}
	return &Result{Sweep: res}, nil
}
