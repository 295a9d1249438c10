package jobqueue

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"peas/internal/durable"
	"peas/internal/experiment"
)

// TestSubmitAfterWaitHitsCache pins the publish-last order: once Wait
// reports done, the finished job has already left the coalescing index
// and its result is cached, so an identical submission is a cache hit
// rather than a coalesce onto the finished job. The slowed state dir
// stretches the job's file removal, which would otherwise hide an
// out-of-order publish.
func TestSubmitAfterWaitHitsCache(t *testing.T) {
	pool := New(Config{
		Workers:    1,
		QueueDepth: 4,
		StateDir:   "/state",
		FS:         durable.Slow(durable.NewMem(), 50*time.Millisecond),
	})
	pool.Start()
	defer pool.Shutdown(context.Background())

	j, _, err := pool.Submit(testSpec(131))
	if err != nil {
		t.Fatal(err)
	}
	waitResult(t, j)
	j2, outcome, err := pool.Submit(testSpec(131))
	if err != nil {
		t.Fatal(err)
	}
	if outcome != OutcomeCached {
		t.Fatalf("submission after Wait returned done: outcome %s (job %s), want %s", outcome, j2.ID, OutcomeCached)
	}
}

// TestDrainCheckpointWriteFailureSuspends: when the drain checkpoint
// cannot be written, the job is still suspended. Its spec stays on disk,
// so the next boot restarts it from scratch; reporting it failed would
// show clients a failure for a job the next boot runs anyway.
func TestDrainCheckpointWriteFailureSuspends(t *testing.T) {
	const dir = "/state"
	mem := durable.NewMem()
	ffs := durable.NewFaultFS(mem)
	pool := New(Config{
		Workers: 1, QueueDepth: 4, StateDir: dir, CheckpointEvery: 200, FS: ffs,
		Run: func(rc experiment.RunConfig) (*experiment.RunStats, error) {
			stats, err := experiment.Run(rc)
			ffs.FailWrites(syscall.ENOSPC)
			return stats, err
		},
	})
	pool.drainStop.Store(true)
	pool.Start()
	spec := testSpec(151)
	spec.Horizon = 1500
	j, _, err := pool.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitErr(t, j)
	if err := pool.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := j.State(); st != StateSuspended {
		t.Fatalf("state = %s, want suspended", st)
	}
	c := pool.Counters()
	if c.Get("persist_errors") != 1 || c.Get("jobs_suspended") != 1 || c.Get("jobs_failed") != 0 {
		t.Errorf("persist_errors/jobs_suspended/jobs_failed = %d/%d/%d, want 1/1/0",
			c.Get("persist_errors"), c.Get("jobs_suspended"), c.Get("jobs_failed"))
	}
	pool2, n := recoverInto(t, mem, dir, 4)
	if n != 1 {
		t.Fatalf("recovered %d jobs, want the suspended one", n)
	}
	j2, _ := pool2.Get(j.ID)
	if j2.resume != nil {
		t.Error("job recovered with a checkpoint that was never written")
	}
}

// crashWitness wraps a FaultFS and records the watched job's state at
// the instant the armed crash point fires, i.e. what a client could have
// seen when the machine died.
type crashWitness struct {
	*durable.FaultFS
	mu    sync.Mutex
	job   *Job
	state State // "" until the crash fires
}

func (w *crashWitness) watch(j *Job) {
	w.mu.Lock()
	w.job = j
	w.mu.Unlock()
}

func (w *crashWitness) note() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.state == "" && w.job != nil && w.FaultFS.Crashed() {
		w.state = w.job.State()
	}
}

func (w *crashWitness) seen() State {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.state
}

func (w *crashWitness) MkdirAll(dir string) error {
	defer w.note()
	return w.FaultFS.MkdirAll(dir)
}

func (w *crashWitness) Create(name string) (durable.File, error) {
	defer w.note()
	f, err := w.FaultFS.Create(name)
	if err != nil {
		return nil, err
	}
	return witnessFile{f, w}, nil
}

func (w *crashWitness) Rename(oldpath, newpath string) error {
	defer w.note()
	return w.FaultFS.Rename(oldpath, newpath)
}

func (w *crashWitness) Remove(name string) error {
	defer w.note()
	return w.FaultFS.Remove(name)
}

func (w *crashWitness) SyncDir(dir string) error {
	defer w.note()
	return w.FaultFS.SyncDir(dir)
}

type witnessFile struct {
	durable.File
	w *crashWitness
}

func (f witnessFile) Write(p []byte) (int, error) {
	defer f.w.note()
	return f.File.Write(p)
}

func (f witnessFile) Sync() error {
	defer f.w.note()
	return f.File.Sync()
}

func (f witnessFile) Close() error {
	defer f.w.note()
	return f.File.Close()
}

// TestTerminateCrashPointSweep crashes the disk at every mutating
// operation a terminal transition issues, for each outcome that touches
// disk, then boots a fresh pool on what the crash left. A job already
// published done, failed, cancelled or deadline_exceeded must never be
// re-enqueued, a job published suspended always must be, and nothing may
// be quarantined. The point one past the last operation crashes nothing
// and checks the final published state.
func TestTerminateCrashPointSweep(t *testing.T) {
	const dir = "/state"
	scenarios := []struct {
		name string
		want State
		// stop, when set, is called on the job once the run passes 300
		// simulated seconds, so the run comes back with a checkpoint.
		stop   func(p *Pool, j *Job)
		drain  bool // latch the drain flag: the run suspends at a checkpoint
		queued bool // never start the workers: Cancel terminates the job
	}{
		{name: "done", want: StateDone},
		{name: "parked-cancel", want: StateCancelled, stop: func(p *Pool, j *Job) { p.Cancel(j.ID) }},
		{name: "parked-deadline", want: StateDeadline, stop: func(p *Pool, j *Job) { p.stop(j, CauseDeadline) }},
		{name: "drain-suspend", want: StateSuspended, drain: true},
		{name: "queued-cancel", want: StateCancelled, queued: true},
	}

	// attempt runs scenario sc with the crash armed at op k of the
	// terminal transition (k <= 0 only counts the ops): the executor arms
	// it after the run returns, right before the worker terminates the
	// job. It returns the job's published state when the crash fired (or
	// its final state when none did), the ops counted since arming, the
	// disk the crash left and the job ID.
	attempt := func(t *testing.T, sc int, k int) (State, int, *durable.Mem, string) {
		t.Helper()
		scen := scenarios[sc]
		mem := durable.NewMem()
		w := &crashWitness{FaultFS: durable.NewFaultFS(mem)}
		var pool *Pool
		pool = New(Config{
			Workers: 1, QueueDepth: 4, StateDir: dir, CheckpointEvery: 200, FS: w,
			Run: func(rc experiment.RunConfig) (*experiment.RunStats, error) {
				if scen.stop != nil {
					orig, stopped := rc.OnSample, false
					rc.OnSample = func(simT float64, working int, cov []float64) {
						orig(simT, working, cov)
						if simT >= 300 && !stopped {
							stopped = true
							for _, j := range pool.Jobs() {
								scen.stop(pool, j)
							}
						}
					}
				}
				stats, err := experiment.Run(rc)
				w.CrashAt(k)
				return stats, err
			},
		})
		pool.drainStop.Store(scen.drain)
		spec := testSpec(141)
		spec.Horizon = 1500
		j, _, err := pool.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		w.watch(j)
		if scen.queued {
			w.CrashAt(k)
			if _, found, requested := pool.Cancel(j.ID); !found || !requested {
				t.Fatalf("Cancel = found %v requested %v", found, requested)
			}
		} else {
			pool.Start()
		}
		select {
		case <-j.Context().Done():
		case <-time.After(60 * time.Second):
			t.Fatal("job never reached a terminal state")
		}
		if err := pool.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		seen := w.seen()
		if !w.Crashed() {
			seen = j.State()
			if seen != scen.want {
				t.Fatalf("uncrashed run ended %s, want %s", seen, scen.want)
			}
		}
		return seen, w.Ops(), mem, j.ID
	}

	for sc := range scenarios {
		t.Run(scenarios[sc].name, func(t *testing.T) {
			_, ops, _, _ := attempt(t, sc, 0)
			if ops == 0 {
				t.Fatal("terminal transition issued no disk operations")
			}
			for k := 1; k <= ops+1; k++ {
				seen, _, mem, id := attempt(t, sc, k)
				pool := New(Config{Workers: 1, QueueDepth: 4, StateDir: dir, CheckpointEvery: 200, FS: mem})
				if _, err := pool.Recover(); err != nil {
					t.Fatalf("crash at op %d: Recover: %v", k, err)
				}
				_, requeued := pool.Get(id)
				c := pool.Counters()
				if q := c.Get("jobs_quarantined") + c.Get("checkpoints_quarantined"); q != 0 {
					t.Errorf("crash at op %d/%d: %d files quarantined", k, ops, q)
				}
				switch seen {
				case StateDone, StateFailed, StateCancelled, StateDeadline:
					if requeued {
						t.Errorf("crash at op %d/%d: job published %s was re-enqueued by Recover", k, ops, seen)
					}
				case StateSuspended:
					if !requeued {
						t.Errorf("crash at op %d/%d: job published suspended was not re-enqueued", k, ops)
					}
				}
			}
		})
	}
}

// TestDecideTable checks decide over every combination of its inputs
// against the outcome table (DESIGN.md §15), read top to bottom with the
// first matching row winning, and checks the properties every row must
// keep: a state a client reads as final never leaves a runnable spec, a
// suspended job always leaves one, and exactly one terminal counter
// names the state.
func TestDecideTable(t *testing.T) {
	runFailure := errors.New("run failed")
	type in struct {
		result, snap   bool
		err            error
		cause          CancelCause
		stateDir, hang bool
	}
	always := func(in) bool { return true }
	rows := []struct {
		match    func(in) bool
		state    State
		disk     diskAction
		counters string
		errText  string
	}{
		{func(c in) bool { return c.result }, StateDone, diskRemove, "jobs_completed runs_executed", ""},
		{func(c in) bool { return c.snap && c.cause == CauseCancel }, StateCancelled, diskPark, "jobs_cancelled jobs_parked", "cancelled"},
		{func(c in) bool { return c.snap && c.cause == CauseDeadline }, StateDeadline, diskPark, "jobs_deadline_exceeded jobs_parked", "exceeded its 5s deadline"},
		{func(c in) bool { return c.snap && c.cause == CauseWatchdog }, StateSuspended, diskCheckpoint, "jobs_suspended watchdog_preemptions", ""},
		{func(c in) bool { return c.snap }, StateSuspended, diskCheckpoint, "jobs_suspended", ""},
		{func(c in) bool { return c.err == errAbortRestartable }, StateSuspended, diskKeep, "jobs_suspended", ""},
		{func(c in) bool { return c.err == errPreempted && c.cause == CauseDeadline }, StateDeadline, diskRemove, "jobs_deadline_exceeded", "exceeded its 5s deadline"},
		{func(c in) bool { return c.err == errPreempted && c.cause == CauseWatchdog && c.stateDir && !c.hang }, StateSuspended, diskKeep, "jobs_suspended watchdog_preemptions", ""},
		{func(c in) bool { return c.err == errPreempted && c.cause == CauseWatchdog }, StateFailed, diskRemove, "jobs_failed watchdog_preemptions", "preempted by watchdog"},
		{func(c in) bool { return c.err == errPreempted }, StateCancelled, diskRemove, "jobs_cancelled", "cancelled"},
		{func(c in) bool { return c.err != nil }, StateFailed, diskRemove, "jobs_failed", "run failed"},
		{always, StateFailed, diskRemove, "jobs_failed", "produced no outcome"},
	}
	terminalCounter := map[State]string{
		StateDone: "jobs_completed", StateFailed: "jobs_failed", StateSuspended: "jobs_suspended",
		StateCancelled: "jobs_cancelled", StateDeadline: "jobs_deadline_exceeded",
	}

	bools := []bool{false, true}
	hits := make([]int, len(rows))
	combos := 0
	for _, result := range bools {
		for _, snap := range bools {
			for _, err := range []error{nil, errAbortRestartable, errPreempted, runFailure} {
				for _, cause := range []CancelCause{"", CauseCancel, CauseDeadline, CauseWatchdog} {
					for _, stateDir := range bools {
						for _, hang := range bools {
							c := in{result, snap, err, cause, stateDir, hang}
							combos++
							p := &Pool{cfg: Config{StallWindow: time.Second}}
							if stateDir {
								p.cfg.StateDir = "/state"
							}
							job := newJob("j-000001", "key", &Spec{Hang: hang, DeadlineSeconds: 5}, time.Now())
							got := p.decide(job, runEnd{result: result, snap: snap, err: err, cause: cause})

							r := 0
							for !rows[r].match(c) {
								r++
							}
							hits[r]++
							row := rows[r]
							label := fmt.Sprintf("%+v (row %d)", c, r)
							counters := append([]string(nil), got.counters...)
							sort.Strings(counters)
							if got.state != row.state || got.disk != row.disk || strings.Join(counters, " ") != row.counters {
								t.Errorf("%s: got %s/%d/%v, want %s/%d/%s", label, got.state, got.disk, counters, row.state, row.disk, row.counters)
							}
							switch {
							case row.errText == "" && got.err != nil:
								t.Errorf("%s: unexpected error %v", label, got.err)
							case row.errText != "" && (got.err == nil || !strings.Contains(got.err.Error(), row.errText)):
								t.Errorf("%s: error %v, want one containing %q", label, got.err, row.errText)
							}

							switch got.state {
							case StateSuspended:
								if got.disk != diskKeep && got.disk != diskCheckpoint {
									t.Errorf("%s: suspended without a spec for Recover", label)
								}
							default:
								if got.disk != diskRemove && got.disk != diskPark {
									t.Errorf("%s: %s leaves a runnable spec", label, got.state)
								}
							}
							n := 0
							for _, name := range got.counters {
								for _, tc := range terminalCounter {
									if name == tc {
										n++
									}
								}
							}
							if n != 1 || !strings.Contains(strings.Join(got.counters, " "), terminalCounter[got.state]) {
								t.Errorf("%s: counters %v do not name the %s state exactly once", label, got.counters, got.state)
							}
						}
					}
				}
			}
		}
	}
	if combos != 2*2*4*4*2*2 {
		t.Fatalf("enumerated %d combinations", combos)
	}
	for r, n := range hits {
		if n == 0 {
			t.Errorf("row %d of the table matched no combination", r)
		}
	}
}
