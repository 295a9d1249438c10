package jobqueue

import (
	"context"
	"fmt"
	"sync"
	"time"

	"peas/internal/checkpoint"
	"peas/internal/sim"
)

// State is a job's lifecycle stage.
type State string

const (
	// StateQueued: admitted, waiting for a worker.
	StateQueued State = "queued"
	// StateRunning: executing on a worker.
	StateRunning State = "running"
	// StateDone: finished successfully; Result is set.
	StateDone State = "done"
	// StateFailed: finished with an error (including invariant-oracle
	// violations on Check jobs); Err is set.
	StateFailed State = "failed"
	// StateSuspended: checkpointed during a drain or preempted by the
	// watchdog; the snapshot is persisted and the job resumes after a
	// restart + Recover.
	StateSuspended State = "suspended"
	// StateCancelled: stopped by an explicit Cancel request. Running
	// checkpointable work parks a resumable snapshot first, so a
	// resubmission of the same spec continues instead of restarting.
	StateCancelled State = "cancelled"
	// StateDeadline: the job's DeadlineSeconds budget expired before it
	// finished. Parks a snapshot exactly like StateCancelled.
	StateDeadline State = "deadline_exceeded"
)

// Terminal reports whether the state is final: the job will never run
// again under this ID and its worker slot (if it had one) is released.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateSuspended, StateCancelled, StateDeadline:
		return true
	}
	return false
}

// CancelCause records why a job was asked to stop; the first request
// wins and decides the terminal state.
type CancelCause string

const (
	// CauseCancel: an explicit Pool.Cancel (DELETE /jobs/{id}).
	CauseCancel CancelCause = "cancel"
	// CauseDeadline: the DeadlineSeconds budget expired.
	CauseDeadline CancelCause = "deadline"
	// CauseWatchdog: no event progress within the stall window.
	CauseWatchdog CancelCause = "watchdog"
)

// Result is what a completed job produces. Identical submissions share
// one Result through the content-addressed cache.
type Result struct {
	// StateHash is the hex SHA-256 of the final snapshot's canonical
	// encoding — the bit-exact identity of the end state. Empty for
	// sweep jobs, which aggregate many runs.
	StateHash string `json:"stateHash,omitempty"`
	// Stats holds the single-run metrics (sim and chaos jobs).
	Stats *RunStats `json:"stats,omitempty"`
	// Sweep holds the deployment-sweep table (sweep jobs).
	Sweep *DeploymentSweepResult `json:"sweep,omitempty"`
	// Chaos holds the final per-fault-class counters (chaos jobs).
	Chaos map[string]uint64 `json:"chaos,omitempty"`
	// Violations counts invariant-oracle findings on Check jobs (a
	// non-zero count fails the job, but the tally is still reported).
	Violations int `json:"violations,omitempty"`
	// WallSeconds is the worker wall time of the underlying run. Cache
	// hits report the original run's time.
	WallSeconds float64 `json:"wallSeconds"`
	// Events is the number of engine events the run executed.
	Events uint64 `json:"events,omitempty"`
	// AllocsPerEvent is heap objects allocated per executed event,
	// measured with perf.AllocMeter. With several workers active the
	// global allocation counter interleaves runs, so treat it as an
	// approximation under load; with one worker it is exact.
	AllocsPerEvent float64 `json:"allocsPerEvent,omitempty"`
	// Resumed reports that the run continued from a drain checkpoint.
	Resumed bool `json:"resumed,omitempty"`
}

// EventType classifies job lifecycle events.
type EventType string

const (
	EventQueued    EventType = "queued"
	EventStarted   EventType = "started"
	EventProgress  EventType = "progress"
	EventSuspended EventType = "suspended"
	EventDone      EventType = "done"
	EventFailed    EventType = "failed"
	EventCancelled EventType = "cancelled"
	EventDeadline  EventType = "deadline_exceeded"
)

// Event is one entry of a job's event stream. The server forwards these
// verbatim over SSE.
type Event struct {
	Type EventType `json:"type"`
	// JobID identifies the job the event belongs to.
	JobID string `json:"jobId"`
	// SimT and Horizon describe progress in simulated seconds; Fraction
	// is SimT/Horizon (progress events).
	SimT     float64 `json:"simT,omitempty"`
	Horizon  float64 `json:"horizon,omitempty"`
	Fraction float64 `json:"fraction,omitempty"`
	// Working is the working-node count at the sample (progress events).
	Working int `json:"working,omitempty"`
	// Error carries the failure message (failed events).
	Error string `json:"error,omitempty"`
	// Result carries the outcome (done events).
	Result *Result `json:"result,omitempty"`
}

// Job is one tracked submission. All exported accessors are safe for
// concurrent use; the worker pool mutates it through the unexported
// methods under the job's own lock.
type Job struct {
	// ID is the queue-assigned identity ("j-<seq>"). Coalesced
	// submissions share the primary job's ID.
	ID string
	// Key is the content address of the spec (see Spec.Key).
	Key string
	// Spec is the normalized submission.
	Spec *Spec

	mu         sync.Mutex
	state      State
	err        error
	result     *Result
	simT       float64
	working    int
	enqueuedAt time.Time
	startedAt  time.Time
	finishedAt time.Time
	// resume, when set, is the drain or park snapshot the next run
	// continues from (populated by Recover or a parked-checkpoint claim).
	resume *checkpoint.Snapshot

	// ctx is the job's lifecycle context: it is cancelled (with a cause)
	// the moment the job reaches a terminal state, so request-scoped work
	// tied to the job — streaming, polling, waiting — can unwind through
	// the standard context mechanism.
	ctx       context.Context
	ctxCancel context.CancelCauseFunc

	// super is the engine supervisor of the current run (nil unless a
	// supervised run is executing). cancelCause records the first stop
	// request; deadlineAt is the absolute DeadlineSeconds expiry (zero
	// when unbounded). lastBeat/lastBeatAt track watchdog stall
	// detection.
	super       *sim.Supervisor
	cancelCause CancelCause
	deadlineAt  time.Time
	lastBeat    uint64
	lastBeatAt  time.Time

	subs    map[int]chan Event
	nextSub int
	dropped uint64
}

func newJob(id, key string, spec *Spec, now time.Time) *Job {
	ctx, cancel := context.WithCancelCause(context.Background())
	j := &Job{
		ID:         id,
		Key:        key,
		Spec:       spec,
		state:      StateQueued,
		enqueuedAt: now,
		ctx:        ctx,
		ctxCancel:  cancel,
		subs:       make(map[int]chan Event),
	}
	if spec.DeadlineSeconds > 0 {
		j.deadlineAt = now.Add(time.Duration(spec.DeadlineSeconds * float64(time.Second)))
	}
	return j
}

// State returns the current lifecycle stage.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the outcome (nil until done).
func (j *Job) Result() *Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// Err returns the failure (nil unless failed).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Context returns the job's lifecycle context: it is done once the job
// reaches a terminal state, with context.Cause reporting why (the
// terminal error for failed/cancelled/deadline jobs). Callers can hang
// request-scoped work off it instead of polling State.
func (j *Job) Context() context.Context { return j.ctx }

// Deadline returns the absolute expiry of the job's DeadlineSeconds
// budget, if one was set.
func (j *Job) Deadline() (time.Time, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.deadlineAt, !j.deadlineAt.IsZero()
}

// CancelRequested reports whether a stop has been requested (or already
// taken effect) for this job.
func (j *Job) CancelRequested() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelCause != ""
}

// Progress returns the last observed simulated time and working-node
// count.
func (j *Job) Progress() (simT float64, working int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.simT, j.working
}

// Times returns the enqueue, start and finish instants (zero when the
// stage has not been reached).
func (j *Job) Times() (enqueued, started, finished time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.enqueuedAt, j.startedAt, j.finishedAt
}

// QueueWait returns how long the job sat admitted-but-not-running and
// whether it has started. Jobs still queued report the wait so far, so
// the value is observable (and monotone) before a worker picks the job
// up; cached submissions, which never queue, report zero.
func (j *Job) QueueWait() (time.Duration, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.enqueuedAt.IsZero() {
		return 0, false
	}
	if j.startedAt.IsZero() {
		if j.state == StateQueued {
			return time.Since(j.enqueuedAt), false
		}
		return 0, false // cached: done without ever queueing
	}
	return j.startedAt.Sub(j.enqueuedAt), true
}

// DroppedEvents reports how many events were discarded because a
// subscriber's buffer was full.
func (j *Job) DroppedEvents() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}

// subscriberBuffer bounds each subscriber's backlog. A slow consumer
// loses intermediate progress events rather than stalling the worker;
// terminal events are delivered with a blocking send only if the channel
// still has room, so even they are best-effort per subscriber (the
// job's final state is always available via State/Result).
const subscriberBuffer = 64

// Subscribe returns a channel of the job's events plus a cancel
// function. The current state is replayed as a first synthetic event so
// late subscribers see a consistent stream; the channel is closed after
// a terminal event (done/failed/suspended) or on cancel.
func (j *Job) Subscribe() (<-chan Event, func()) {
	j.mu.Lock()
	ch := make(chan Event, subscriberBuffer)
	ch <- j.snapshotEventLocked()
	terminal := j.state.Terminal()
	var id int
	if terminal {
		close(ch)
	} else {
		id = j.nextSub
		j.nextSub++
		j.subs[id] = ch
	}
	j.mu.Unlock()

	cancel := func() {
		j.mu.Lock()
		if c, ok := j.subs[id]; ok && c == ch {
			delete(j.subs, id)
			close(c)
		}
		j.mu.Unlock()
	}
	if terminal {
		cancel = func() {}
	}
	return ch, cancel
}

// Wait blocks until the job reaches a terminal state and returns its
// result. Failed jobs return their error, suspended jobs an error
// explaining that the job will resume after a restart.
func (j *Job) Wait(ctx context.Context) (*Result, error) {
	ch, cancel := j.Subscribe()
	defer cancel()
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case _, ok := <-ch:
			if !ok {
				// Stream closed on a terminal event; fall through to
				// read the final state below.
			} else {
				continue
			}
		}
		switch j.State() {
		case StateDone:
			return j.Result(), nil
		case StateFailed, StateCancelled, StateDeadline:
			return nil, j.Err()
		case StateSuspended:
			return nil, fmt.Errorf("jobqueue: job %s suspended by shutdown; resumes after restart", j.ID)
		default:
			return nil, fmt.Errorf("jobqueue: job %s event stream closed in state %s", j.ID, j.State())
		}
	}
}

// snapshotEventLocked renders the current state as an event.
func (j *Job) snapshotEventLocked() Event {
	ev := Event{JobID: j.ID, SimT: j.simT, Horizon: j.Spec.Horizon, Working: j.working}
	if j.Spec.Horizon > 0 {
		ev.Fraction = j.simT / j.Spec.Horizon
	}
	switch j.state {
	case StateQueued:
		ev.Type = EventQueued
	case StateRunning:
		if j.startedAt.IsZero() || j.simT == 0 {
			ev.Type = EventStarted
		} else {
			ev.Type = EventProgress
		}
	case StateDone:
		ev.Type = EventDone
		ev.Result = j.result
	case StateFailed:
		ev.Type = EventFailed
		if j.err != nil {
			ev.Error = j.err.Error()
		}
	case StateSuspended:
		ev.Type = EventSuspended
	case StateCancelled:
		ev.Type = EventCancelled
		if j.err != nil {
			ev.Error = j.err.Error()
		}
	case StateDeadline:
		ev.Type = EventDeadline
		if j.err != nil {
			ev.Error = j.err.Error()
		}
	}
	return ev
}

// publishLocked fans ev out to subscribers, dropping it per subscriber
// when the buffer is full. Terminal events also close the channels.
func (j *Job) publishLocked(ev Event, terminal bool) {
	for id, ch := range j.subs {
		select {
		case ch <- ev:
		default:
			j.dropped++
		}
		if terminal {
			delete(j.subs, id)
			close(ch)
		}
	}
}

// beginRun claims a queued job for execution. It returns false when the
// job was asked to stop while it sat in the queue: the stop request
// terminates such a job itself, so the worker must skip it.
func (j *Job) beginRun(now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued || j.cancelCause != "" {
		return false
	}
	j.state = StateRunning
	j.startedAt = now
	j.lastBeatAt = now
	j.publishLocked(Event{Type: EventStarted, JobID: j.ID, Horizon: j.Spec.Horizon}, false)
	return true
}

// attachSupervisor installs the engine supervisor of the job's current
// run. A stop requested before the run started (the cancel-vs-dequeue
// race) is forwarded immediately so the run preempts at its first poll
// boundary.
func (j *Job) attachSupervisor(s *sim.Supervisor) {
	j.mu.Lock()
	j.super = s
	if j.cancelCause != "" {
		s.Stop.Store(true)
	}
	j.mu.Unlock()
}

// requestStop records a stop request; the first cause wins, and requests
// on terminal or already-stopping jobs report effective false. It only
// records: a running job's supervisor is flagged and its worker
// terminates it when the run comes back, while a job still queued
// (queued true) will never be claimed by a worker — beginRun refuses it
// — so the caller terminates it.
func (j *Job) requestStop(cause CancelCause) (queued, effective bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() || j.cancelCause != "" {
		return false, false
	}
	j.cancelCause = cause
	if j.super != nil {
		j.super.Stop.Store(true)
	}
	return j.state == StateQueued, true
}

// stopCause returns the recorded stop cause ("" when none).
func (j *Job) stopCause() CancelCause {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelCause
}

// checkStall advances watchdog bookkeeping for a running supervised job
// and fires a preemption when the heartbeat has not moved within window.
// It returns true exactly once per stall (the first cause wins).
func (j *Job) checkStall(now time.Time, window time.Duration) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning || j.super == nil {
		return false
	}
	beat := j.super.Beat.Load()
	if beat != j.lastBeat || j.lastBeatAt.IsZero() {
		j.lastBeat = beat
		j.lastBeatAt = now
		return false
	}
	if now.Sub(j.lastBeatAt) < window || j.cancelCause != "" {
		return false
	}
	j.cancelCause = CauseWatchdog
	j.super.Stop.Store(true)
	return true
}

// progressStride is the minimum horizon fraction between emitted
// progress events, so a long run does not flood subscribers with every
// 25-second coverage sample.
const progressStride = 0.01

func (j *Job) observeProgress(simT float64, working int) {
	j.mu.Lock()
	prev := j.simT
	j.simT = simT
	j.working = working
	h := j.Spec.Horizon
	if h > 0 && (simT-prev) >= progressStride*h {
		ev := Event{Type: EventProgress, JobID: j.ID, SimT: simT, Horizon: h,
			Fraction: simT / h, Working: working}
		j.publishLocked(ev, false)
	}
	j.mu.Unlock()
}

// publishTerminal records a terminal state with its result and error,
// sends the terminal event (the same rendering a late subscriber
// replays), closes every subscription and cancels the lifecycle context,
// all under the job lock so no reader sees half a transition. It is the
// last step of every terminal transition.
func (j *Job) publishTerminal(st State, res *Result, err error, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state, j.result, j.err, j.finishedAt = st, res, err, now
	j.publishLocked(j.snapshotEventLocked(), true)
	switch st {
	case StateDone:
		err = errJobFinished
	case StateSuspended:
		err = errJobSuspended
	}
	j.ctxCancel(err)
}

// errJobFinished and errJobSuspended are the lifecycle-context causes of
// the non-error terminal states (context.Cause never reports nil once a
// context is cancelled, so each terminal state gets a distinct cause).
var (
	errJobFinished  = fmt.Errorf("jobqueue: job finished")
	errJobSuspended = fmt.Errorf("jobqueue: job suspended")
)
