package jobqueue

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"peas/internal/durable"
	"peas/internal/experiment"
)

// buildDrainState produces a state dir holding one suspended job — a
// real spec file plus a real drain checkpoint, written through the
// production path — and returns the job ID and the StateHash an
// uninterrupted run of the same spec produces.
func buildDrainState(t *testing.T) (dir, id, want string) {
	t.Helper()
	spec := testSpec(71)
	spec.Horizon = 1500
	want = directHash(t, spec)

	dir = t.TempDir()
	release := make(chan struct{})
	started := make(chan struct{})
	pool := New(Config{
		Workers:         1,
		QueueDepth:      4,
		StateDir:        dir,
		CheckpointEvery: 200,
		BeforeRun: func(*Job) {
			close(started)
			<-release
		},
	})
	pool.Start()
	s := *spec
	j, _, err := pool.Submit(&s)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- pool.Shutdown(ctx) }()
	time.Sleep(150 * time.Millisecond)
	close(release)
	if err := <-done; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded", err)
	}
	if st := j.State(); st != StateSuspended {
		t.Fatalf("job state = %s, want suspended", st)
	}
	return dir, j.ID, want
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// recoverInto runs Recover on a fresh, un-started pool over dir on fsys
// (nil = the real disk) and returns the pool plus the recovered count.
// The torn-write sweep calls it thousands of times; not starting workers
// keeps each call cheap.
func recoverInto(t *testing.T, fsys durable.FS, dir string, depth int) (*Pool, int) {
	t.Helper()
	pool := New(Config{Workers: 1, QueueDepth: depth, StateDir: dir, CheckpointEvery: 200, FS: fsys})
	n, err := pool.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return pool, n
}

// TestTornWriteSweep is the recovery acceptance sweep: for a persisted
// spec and checkpoint pair, truncate each file at every byte boundary
// and flip a bit at every byte offset; Recover must never return an
// error, and every boot must account for the job exactly once — either
// recovered (healthy or restartable spec) or quarantined (damaged
// spec), with damaged checkpoints quarantined separately and the job
// restarted from its spec. The pair comes from a real drain on disk;
// each damaged copy boots from an in-memory FS, so the full sweep runs
// in every mode.
func TestTornWriteSweep(t *testing.T) {
	srcDir, id, _ := buildDrainState(t)
	specName, ckptName := id+".spec.json", id+".ckpt"
	specData, err := os.ReadFile(filepath.Join(srcDir, specName))
	if err != nil {
		t.Fatal(err)
	}
	ckptData, err := os.ReadFile(filepath.Join(srcDir, ckptName))
	if err != nil {
		t.Fatal(err)
	}

	const dir = "/state"
	runCase := func(t *testing.T, spec, ckpt []byte, specDamaged bool) {
		t.Helper()
		mem := durable.NewMem()
		if err := mem.MkdirAll(dir); err != nil {
			t.Fatal(err)
		}
		for name, data := range map[string][]byte{specName: spec, ckptName: ckpt} {
			f, err := mem.Create(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(data); err != nil {
				t.Fatal(err)
			}
		}
		exists := func(path string) bool {
			_, err := mem.ReadFile(path)
			return err == nil
		}
		pool, n := recoverInto(t, mem, dir, 4)
		quarJobs := pool.Counters().Get("jobs_quarantined")
		if specDamaged {
			if n != 0 || quarJobs != 1 {
				t.Fatalf("damaged spec: recovered=%d quarantined=%d, want 0/1", n, quarJobs)
			}
			for _, name := range []string{specName, ckptName} {
				if !exists(filepath.Join(dir, QuarantineDir, name)) {
					t.Fatalf("damaged spec: %s not quarantined", name)
				}
				if exists(filepath.Join(dir, name)) {
					t.Fatalf("damaged spec: %s left in state dir", name)
				}
			}
		} else {
			// Spec healthy, checkpoint damaged: the job must still come
			// back (restarting from the spec), the checkpoint set aside.
			if n != 1 || quarJobs != 0 {
				t.Fatalf("damaged ckpt: recovered=%d quarantined=%d, want 1/0", n, quarJobs)
			}
			if got := pool.Counters().Get("checkpoints_quarantined"); got != 1 {
				t.Fatalf("damaged ckpt: checkpoints_quarantined = %d, want 1", got)
			}
			if !exists(filepath.Join(dir, QuarantineDir, ckptName)) {
				t.Fatal("damaged ckpt not quarantined")
			}
			j, ok := pool.Get(id)
			if !ok {
				t.Fatal("damaged ckpt: job not tracked after recovery")
			}
			j.mu.Lock()
			resume := j.resume
			j.mu.Unlock()
			if resume != nil {
				t.Fatal("damaged ckpt: job carries a resume snapshot from a corrupt checkpoint")
			}
		}
	}

	t.Run("spec-truncations", func(t *testing.T) {
		for n := range len(specData) {
			runCase(t, specData[:n], ckptData, true)
		}
	})
	t.Run("spec-bitflips", func(t *testing.T) {
		for off := range len(specData) {
			mutated := append([]byte(nil), specData...)
			mutated[off] ^= 0x10
			runCase(t, mutated, ckptData, true)
		}
	})
	t.Run("ckpt-truncations", func(t *testing.T) {
		for n := range len(ckptData) {
			runCase(t, specData, ckptData[:n], false)
		}
	})
	t.Run("ckpt-bitflips", func(t *testing.T) {
		// The durable frame's CRC catches any flip before the snapshot
		// codec ever parses; sweep every offset so the whole file —
		// header, codec magic, payload, trailer — is covered.
		for off := range len(ckptData) {
			mutated := append([]byte(nil), ckptData...)
			mutated[off] ^= 0x10
			runCase(t, specData, mutated, false)
		}
	})
}

// TestTornWriteRecoveredRunsFinish closes the loop on the sweep: after
// representative damage, the recovered job actually executes to the
// reference StateHash — a checkpoint loss falls back to a from-scratch
// run with an identical final state (determinism), and the intact pair
// resumes bit-exactly.
func TestTornWriteRecoveredRunsFinish(t *testing.T) {
	srcDir, id, want := buildDrainState(t)
	specName, ckptName := id+".spec.json", id+".ckpt"

	cases := []struct {
		name        string
		damageCkpt  bool
		wantResumed bool
	}{
		{"intact-pair-resumes", false, true},
		{"damaged-ckpt-restarts", true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			copyFile(t, filepath.Join(srcDir, specName), filepath.Join(dir, specName))
			copyFile(t, filepath.Join(srcDir, ckptName), filepath.Join(dir, ckptName))
			if tc.damageCkpt {
				data, err := os.ReadFile(filepath.Join(dir, ckptName))
				if err != nil {
					t.Fatal(err)
				}
				data[len(data)/2] ^= 0xFF
				if err := os.WriteFile(filepath.Join(dir, ckptName), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			pool, n := recoverInto(t, nil, dir, 4)
			if n != 1 {
				t.Fatalf("recovered %d jobs, want 1", n)
			}
			pool.Start()
			defer pool.Shutdown(context.Background())
			j, _ := pool.Get(id)
			res := waitResult(t, j)
			if res.Resumed != tc.wantResumed {
				t.Errorf("Resumed = %v, want %v", res.Resumed, tc.wantResumed)
			}
			if res.StateHash != want {
				t.Errorf("hash %s, want %s", res.StateHash, want)
			}
		})
	}
}

// TestRecoverSweepsTmpAndOrphans: torn .tmp files are deleted (they
// hold no committed data by protocol) and a checkpoint without a spec
// is quarantined rather than leaked or parsed.
func TestRecoverSweepsTmpAndOrphans(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"j-000003.spec.json.tmp", "j-000004.ckpt.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "j-000005.ckpt"), []byte("orphan"), 0o644); err != nil {
		t.Fatal(err)
	}

	pool, n := recoverInto(t, nil, dir, 4)
	if n != 0 {
		t.Fatalf("recovered %d jobs from garbage, want 0", n)
	}
	if got := pool.Counters().Get("tmp_files_swept"); got != 2 {
		t.Errorf("tmp_files_swept = %d, want 2", got)
	}
	if got := pool.Counters().Get("checkpoints_quarantined"); got != 1 {
		t.Errorf("checkpoints_quarantined = %d, want 1", got)
	}
	if _, err := os.Stat(filepath.Join(dir, QuarantineDir, "j-000005.ckpt")); err != nil {
		t.Errorf("orphan checkpoint not quarantined: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if !ent.IsDir() {
			t.Errorf("file %s left in state dir after sweep", ent.Name())
		}
	}
}

// writeSpecFileRaw persists a spec file exactly as the store would,
// letting tests assemble arbitrary state-dir populations.
func writeSpecFileRaw(t *testing.T, dir, id string, spec *Spec) {
	t.Helper()
	s := *spec
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(specFile{ID: id, Key: s.Key(), Spec: &s})
	if err != nil {
		t.Fatal(err)
	}
	if err := durable.WriteFile(durable.OS{}, filepath.Join(dir, id+".spec.json"), data); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverQueueOverflowLeftovers: more persisted jobs than queue
// capacity recover up to the cap; the rest stay on disk and come back
// on the NEXT restart once capacity frees up.
func TestRecoverQueueOverflowLeftovers(t *testing.T) {
	dir := t.TempDir()
	for i := 1; i <= 6; i++ {
		writeSpecFileRaw(t, dir, fmt.Sprintf("j-%06d", i), testSpec(int64(80+i)))
	}

	pool1, n := recoverInto(t, nil, dir, 2)
	if n != 2 {
		t.Fatalf("first boot recovered %d jobs with QueueDepth=2, want 2", n)
	}
	pool1.Start()
	for _, id := range []string{"j-000001", "j-000002"} {
		j, ok := pool1.Get(id)
		if !ok {
			t.Fatalf("job %s not recovered on first boot", id)
		}
		waitResult(t, j)
	}
	if err := pool1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The four overflow jobs were untouched: still on disk, recovered by
	// the next boot.
	pool2, n := recoverInto(t, nil, dir, 8)
	if n != 4 {
		t.Fatalf("second boot recovered %d jobs, want the 4 leftovers", n)
	}
	pool2.Start()
	defer pool2.Shutdown(context.Background())
	for i := 3; i <= 6; i++ {
		j, ok := pool2.Get(fmt.Sprintf("j-%06d", i))
		if !ok {
			t.Fatalf("leftover job j-%06d not recovered on second boot", i)
		}
		waitResult(t, j)
	}
}

// TestRecoverDuplicateKeyCollapse: two persisted jobs with the same
// content key (possible across crashed generations) collapse to one;
// the stale duplicate's files are removed.
func TestRecoverDuplicateKeyCollapse(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(91)
	writeSpecFileRaw(t, dir, "j-000001", spec)
	writeSpecFileRaw(t, dir, "j-000002", spec)
	writeSpecFileRaw(t, dir, "j-000003", testSpec(92))

	pool, n := recoverInto(t, nil, dir, 8)
	if n != 2 {
		t.Fatalf("recovered %d jobs, want 2 (duplicate collapsed)", n)
	}
	if got := pool.Counters().Get("jobs_recovered_dup"); got != 1 {
		t.Errorf("jobs_recovered_dup = %d, want 1", got)
	}
	if _, err := os.Stat(filepath.Join(dir, "j-000002.spec.json")); !os.IsNotExist(err) {
		t.Error("stale duplicate's spec file should be removed")
	}
	if _, err := os.Stat(filepath.Join(dir, "j-000001.spec.json")); err != nil {
		t.Errorf("surviving duplicate's spec file missing: %v", err)
	}
}

// TestRecoverAdvancesIDSequence: new submissions after recovery must
// not reuse any ID seen on disk — including quarantined ones, whose
// files live on under their original names.
func TestRecoverAdvancesIDSequence(t *testing.T) {
	dir := t.TempDir()
	writeSpecFileRaw(t, dir, "j-000007", testSpec(95))
	// A damaged high-numbered spec: quarantined, but its ID is burned.
	if err := os.WriteFile(filepath.Join(dir, "j-000042.spec.json"), []byte("wreckage"), 0o644); err != nil {
		t.Fatal(err)
	}

	pool, n := recoverInto(t, nil, dir, 8)
	if n != 1 {
		t.Fatalf("recovered %d jobs, want 1", n)
	}
	pool.Start()
	defer pool.Shutdown(context.Background())

	j, _, err := pool.Submit(testSpec(96))
	if err != nil {
		t.Fatal(err)
	}
	if j.ID != "j-000043" {
		t.Errorf("post-recovery ID = %s, want j-000043 (sequence past the quarantined j-000042)", j.ID)
	}
}

// TestPersistFailureRejectsAdmission pins the accepted-means-recoverable
// contract: when the spec cannot be fsync'd (ENOSPC), Submit rolls the
// admission back and rejects with *PersistError; once the disk
// recovers, the same spec submits cleanly (nothing leaked in the
// coalescing index or the queue accounting).
func TestPersistFailureRejectsAdmission(t *testing.T) {
	ffs := durable.NewFaultFS(nil)
	ffs.FailWrites(syscall.ENOSPC)
	pool := New(Config{Workers: 1, QueueDepth: 4, StateDir: t.TempDir(), FS: ffs})
	pool.Start()
	defer pool.Shutdown(context.Background())

	spec := testSpec(101)
	_, _, err := pool.Submit(spec)
	var perr *PersistError
	if !errors.As(err, &perr) {
		t.Fatalf("Submit under ENOSPC: err = %v, want *PersistError", err)
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Errorf("PersistError should unwrap to ENOSPC, got %v", err)
	}
	stats := pool.Stats()
	if stats.QueueDepth != 0 {
		t.Errorf("queue depth %d after rollback, want 0", stats.QueueDepth)
	}
	if len(pool.Jobs()) != 0 {
		t.Error("rolled-back job still tracked")
	}
	if got := pool.Counters().Get("persist_errors"); got != 1 {
		t.Errorf("persist_errors = %d, want 1", got)
	}

	// Disk recovers: the identical spec must now be accepted as a fresh
	// run, not coalesced onto the failed admission.
	ffs.Reset()
	j, outcome, err := pool.Submit(testSpec(101))
	if err != nil {
		t.Fatalf("resubmission after disk recovery: %v", err)
	}
	if outcome != OutcomeAccepted {
		t.Fatalf("resubmission outcome = %s, want accepted", outcome)
	}
	waitResult(t, j)
}

// TestWorkerPanicIsolation: a panicking job — via the injected
// Spec.Panic fault or a panicking executor — lands in failed with the
// stack in its error, and the pool keeps executing subsequent jobs on
// the same worker.
func TestWorkerPanicIsolation(t *testing.T) {
	dir := t.TempDir()
	pool := New(Config{Workers: 1, QueueDepth: 4, StateDir: dir})
	pool.Start()
	defer pool.Shutdown(context.Background())

	bomb := testSpec(111)
	bomb.Panic = true
	j, _, err := pool.Submit(bomb)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, werr := j.Wait(ctx); werr == nil {
		t.Fatal("panicking job reported success")
	}
	if j.State() != StateFailed {
		t.Fatalf("panicking job state = %s, want failed", j.State())
	}
	jerr := j.Err().Error()
	if !strings.Contains(jerr, "panicked") || !strings.Contains(jerr, "goroutine") {
		t.Errorf("job error missing panic stack: %q", jerr)
	}
	if got := pool.Counters().Get("jobs_panicked"); got != 1 {
		t.Errorf("jobs_panicked = %d, want 1", got)
	}
	if _, err := os.Stat(filepath.Join(dir, j.ID+".spec.json")); !os.IsNotExist(err) {
		t.Error("failed job's spec file should be removed")
	}

	// The single worker survived: a normal job still executes.
	j2, _, err := pool.Submit(testSpec(112))
	if err != nil {
		t.Fatal(err)
	}
	waitResult(t, j2)

	// A panicking executor (simulation bug, not injected fault) is
	// contained the same way.
	pool2 := New(Config{
		Workers:    1,
		QueueDepth: 4,
		Run: func(experiment.RunConfig) (*experiment.RunStats, error) {
			panic("executor bug")
		},
	})
	pool2.Start()
	defer pool2.Shutdown(context.Background())
	j3, _, err := pool2.Submit(testSpec(113))
	if err != nil {
		t.Fatal(err)
	}
	if _, werr := j3.Wait(ctx); werr == nil || !strings.Contains(werr.Error(), "executor bug") {
		t.Fatalf("executor panic not surfaced: %v", werr)
	}
	if got := pool2.Counters().Get("jobs_panicked"); got != 1 {
		t.Errorf("pool2 jobs_panicked = %d, want 1", got)
	}
}

// TestPanicSpecKeyDistinct guards the cache: an injected-panic job must
// never alias the equivalent real run's content key.
func TestPanicSpecKeyDistinct(t *testing.T) {
	a, b := testSpec(121), testSpec(121)
	b.Panic = true
	for _, s := range []*Spec{a, b} {
		if err := s.Normalize(); err != nil {
			t.Fatal(err)
		}
	}
	if a.Key() == b.Key() {
		t.Fatal("panic spec shares a content key with the real run")
	}
}
