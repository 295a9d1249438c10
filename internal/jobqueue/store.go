package jobqueue

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"peas/internal/checkpoint"
	"peas/internal/durable"
)

// On-disk layout under Config.StateDir:
//
//	<id>.spec.json — the admitted job (ID, content key, normalized spec),
//	                 written at admission, removed at completion.
//	<id>.ckpt      — the drain checkpoint in the canonical snapshot
//	                 codec, written when a shutdown deadline suspends
//	                 the run.
//	quarantine/    — damaged files Recover set aside instead of parsing.
//
// Every file is written through internal/durable: an atomic, fsync'd,
// CRC-framed protocol (write-tmp → fsync file → rename → fsync dir), so
// a SIGKILL or power loss at any syscall boundary leaves each path
// holding either its complete previous content or its complete new
// content. Recover is crash-only: it scans the directory on boot,
// re-enqueues every persisted job (resuming bit-exactly from a .ckpt
// when present, restarting from the spec otherwise), quarantines any
// file that fails frame or schema validation, sweeps torn .tmp files
// and orphaned checkpoints, and never aborts the boot for damage.

// QuarantineDir is the subdirectory of the state dir that damaged
// files are moved into for offline inspection.
const QuarantineDir = "quarantine"

type specFile struct {
	ID   string `json:"id"`
	Key  string `json:"key"`
	Spec *Spec  `json:"spec"`
	// Parked marks the pair as a cancelled/deadline-killed run's leftover
	// checkpoint: Recover loads it into the parked index (claimable by a
	// resubmission of the same spec) instead of re-enqueueing the job —
	// a cancelled job must never resurrect as runnable work.
	Parked bool `json:"parked,omitempty"`
}

// fsys returns the filesystem the store runs on (the real one unless a
// test injected a fault layer).
func (p *Pool) fsys() durable.FS {
	if p.cfg.FS != nil {
		return p.cfg.FS
	}
	return durable.OS{}
}

func (p *Pool) specPath(id string) string {
	return filepath.Join(p.cfg.StateDir, id+".spec.json")
}

func (p *Pool) ckptPath(id string) string {
	return filepath.Join(p.cfg.StateDir, id+".ckpt")
}

// persistSpec durably records an admitted job for crash recovery. A
// no-op without a state dir. Submit calls it before the job becomes
// runnable, so a failure here rolls the admission back instead of
// accepting work that could be silently lost.
func (p *Pool) persistSpec(job *Job) error {
	if p.cfg.StateDir == "" {
		return nil
	}
	data, err := json.Marshal(specFile{ID: job.ID, Key: job.Key, Spec: job.Spec})
	if err != nil {
		return err
	}
	return durable.WriteFile(p.fsys(), p.specPath(job.ID), data)
}

// persistSnapshot durably writes a drain checkpoint next to the job's
// spec.
func (p *Pool) persistSnapshot(job *Job, snap *checkpoint.Snapshot) error {
	if p.cfg.StateDir == "" {
		return fmt.Errorf("no state dir configured")
	}
	return durable.WriteFile(p.fsys(), p.ckptPath(job.ID), snap.EncodeBytes())
}

// persistPark rewrites a preempted job's spec with the Parked marker and
// writes its checkpoint beside it. Ordering matters for crash safety:
// the checkpoint lands first, so a crash between the writes leaves a
// plain spec + checkpoint pair — which Recover treats as an ordinary
// resumable job, never a half-parked one.
func (p *Pool) persistPark(job *Job, snap *checkpoint.Snapshot) error {
	if p.cfg.StateDir == "" {
		return nil
	}
	if err := p.persistSnapshot(job, snap); err != nil {
		return err
	}
	data, err := json.Marshal(specFile{ID: job.ID, Key: job.Key, Spec: job.Spec, Parked: true})
	if err != nil {
		return err
	}
	return durable.WriteFile(p.fsys(), p.specPath(job.ID), data)
}

// removeJobFiles clears a finished job's persisted state. The spec goes
// last: it is what makes Recover act on a job, so a crash between the
// two removals leaves a restartable spec, never an orphaned checkpoint.
// Errors are dropped: a file already gone is the goal, and a spec that
// survives is rerun by the next Recover.
func (p *Pool) removeJobFiles(id string) {
	if p.cfg.StateDir == "" {
		return
	}
	fsys := p.fsys()
	_ = fsys.Remove(p.ckptPath(id))
	_ = fsys.Remove(p.specPath(id))
}

// quarantine moves one damaged state file into StateDir/quarantine,
// preserving its name. Crash-only policy: damaged data is set aside
// for inspection — never deleted, never parsed, never allowed to block
// recovery of the healthy files around it.
func (p *Pool) quarantine(name string) {
	fsys := p.fsys()
	qdir := filepath.Join(p.cfg.StateDir, QuarantineDir)
	if err := fsys.MkdirAll(qdir); err != nil {
		p.counters.Add("quarantine_errors", 1)
		return
	}
	if err := fsys.Rename(filepath.Join(p.cfg.StateDir, name), filepath.Join(qdir, name)); err != nil {
		p.counters.Add("quarantine_errors", 1)
		return
	}
	_ = fsys.SyncDir(qdir)
	_ = fsys.SyncDir(p.cfg.StateDir)
}

// Recover re-admits every job persisted in the state dir, resuming from
// drain checkpoints where present. Call it after New and before (or
// after) Start; recovered jobs keep their original IDs, and the ID
// sequence advances past every ID seen on disk (including quarantined
// ones) so new submissions cannot collide. Jobs beyond the queue
// capacity stay on disk for the next restart.
//
// Recover is crash-only: damage never aborts the boot. A spec file that
// fails CRC, JSON or schema validation is quarantined (with its
// checkpoint) and counted in jobs_quarantined; a damaged checkpoint
// alone is quarantined (checkpoints_quarantined) and the job restarts
// from its spec; torn .tmp files and orphaned checkpoints are swept.
// The only error returned is an unreadable state directory itself. It
// returns the number of jobs re-enqueued.
func (p *Pool) Recover() (int, error) {
	if p.cfg.StateDir == "" {
		return 0, nil
	}
	fsys := p.fsys()
	entries, err := fsys.ReadDir(p.cfg.StateDir)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}

	var ids []string
	specs := make(map[string]bool)
	ckpts := make(map[string]bool)
	for _, ent := range entries {
		name := ent.Name()
		switch {
		case ent.IsDir():
			// quarantine/ — not state.
		case strings.HasSuffix(name, durable.TmpSuffix):
			// A torn write: never renamed into place, holds no committed
			// data by protocol. Safe to sweep.
			_ = fsys.Remove(filepath.Join(p.cfg.StateDir, name))
			p.counters.Add("tmp_files_swept", 1)
		case strings.HasSuffix(name, ".spec.json"):
			id := strings.TrimSuffix(name, ".spec.json")
			ids = append(ids, id)
			specs[id] = true
			p.advanceSeq(id)
		case strings.HasSuffix(name, ".ckpt"):
			id := strings.TrimSuffix(name, ".ckpt")
			ckpts[id] = true
			p.advanceSeq(id)
		}
	}
	// Orphaned checkpoints (no spec to attach to) cannot be resumed;
	// set them aside rather than leaking them forever.
	for id := range ckpts {
		if !specs[id] {
			p.quarantine(id + ".ckpt")
			p.counters.Add("checkpoints_quarantined", 1)
			delete(ckpts, id)
		}
	}
	sort.Strings(ids) // admission order: IDs are zero-padded sequence numbers

	recovered := 0
	for _, id := range ids {
		sf, err := p.readSpecFile(id)
		if err != nil {
			// Damaged spec: the job cannot be reconstructed. Quarantine
			// it (and its checkpoint — meaningless without the spec) and
			// keep booting.
			p.quarantine(id + ".spec.json")
			if ckpts[id] {
				p.quarantine(id + ".ckpt")
				p.counters.Add("checkpoints_quarantined", 1)
			}
			p.counters.Add("jobs_quarantined", 1)
			continue
		}
		key := sf.Spec.Key()

		var snap *checkpoint.Snapshot
		if ckpts[id] {
			raw, cerr := durable.ReadFile(fsys, p.ckptPath(id))
			if cerr == nil {
				snap, cerr = checkpoint.DecodeBytes(raw)
			}
			if cerr != nil {
				// Damaged checkpoint, healthy spec: the resume is lost
				// but the job is not — restart it from scratch.
				p.quarantine(id + ".ckpt")
				p.counters.Add("checkpoints_quarantined", 1)
				snap = nil
			}
		}

		if sf.Parked {
			// A cancelled/deadline-killed run's parked checkpoint: load
			// it into the claim index, never the run queue. A parked
			// spec whose checkpoint was lost has nothing left to claim.
			if snap == nil {
				p.quarantine(id + ".spec.json")
				p.counters.Add("jobs_quarantined", 1)
				continue
			}
			if p.addParked(key, id, snap) {
				p.counters.Add("jobs_parked_recovered", 1)
			}
			continue
		}

		p.mu.Lock()
		if !p.accepting || p.queued >= p.cfg.QueueDepth {
			p.mu.Unlock()
			break // remaining files stay for the next restart
		}
		if _, dup := p.inflight[key]; dup {
			p.mu.Unlock()
			p.counters.Add("jobs_recovered_dup", 1)
			p.removeJobFiles(id)
			continue
		}
		job := newJob(id, key, sf.Spec, time.Now())
		job.resume = snap
		p.jobs[id] = job
		p.order = append(p.order, id)
		p.inflight[key] = job
		p.queued++
		p.mu.Unlock()

		p.counters.Add("jobs_recovered", 1)
		p.queue <- job
		recovered++
	}
	return recovered, nil
}

// readSpecFile loads and validates one persisted spec through the
// durable frame; any failure means the file is damaged and must be
// quarantined by the caller.
func (p *Pool) readSpecFile(id string) (*specFile, error) {
	payload, err := durable.ReadFile(p.fsys(), p.specPath(id))
	if err != nil {
		return nil, err
	}
	var sf specFile
	if err := json.Unmarshal(payload, &sf); err != nil {
		return nil, fmt.Errorf("jobqueue: corrupt spec file %s: %w", p.specPath(id), err)
	}
	if sf.Spec == nil {
		return nil, fmt.Errorf("jobqueue: spec file %s has no spec", p.specPath(id))
	}
	if err := sf.Spec.Normalize(); err != nil {
		return nil, fmt.Errorf("jobqueue: recovering %s: %w", id, err)
	}
	return &sf, nil
}

// advanceSeq bumps the ID sequence past an on-disk job ID (held by the
// caller outside p.mu only during single-threaded Recover).
func (p *Pool) advanceSeq(id string) {
	p.mu.Lock()
	if seq := idSequence(id); seq > p.seq {
		p.seq = seq
	}
	p.mu.Unlock()
}

// idSequence parses the numeric suffix of a job ID ("j-000017" -> 17).
func idSequence(id string) int {
	s, ok := strings.CutPrefix(id, "j-")
	if !ok {
		return 0
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0
	}
	return n
}
