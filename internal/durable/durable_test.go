package durable

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestFrameRoundTrip pins the frame layout: framed payloads round-trip,
// and the empty payload is legal.
func TestFrameRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xA5}, 4096)} {
		got, err := Unframe(Frame(payload))
		if err != nil {
			t.Fatalf("Unframe(Frame(%d bytes)): %v", len(payload), err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round-trip of %d bytes diverged", len(payload))
		}
	}
}

// TestUnframeRejectsEveryCorruption is the frame's detection sweep: a
// bit flip at every byte offset and a truncation at every boundary must
// each yield ErrCorrupt — no mutation may pass validation.
func TestUnframeRejectsEveryCorruption(t *testing.T) {
	frame := Frame([]byte("the canonical payload under test, long enough to matter"))
	for off := 0; off < len(frame); off++ {
		mutated := bytes.Clone(frame)
		mutated[off] ^= 0x40
		if _, err := Unframe(mutated); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit flip at offset %d: err = %v, want ErrCorrupt", off, err)
		}
	}
	for n := 0; n < len(frame); n++ {
		if _, err := Unframe(frame[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: err = %v, want ErrCorrupt", n, err)
		}
	}
	if _, err := Unframe(append(bytes.Clone(frame), 0)); !errors.Is(err, ErrCorrupt) {
		t.Fatal("trailing garbage byte passed validation")
	}
}

// TestWriteFileRoundTrip covers the happy path on the real filesystem
// and on Mem, including overwrite.
func TestWriteFileRoundTrip(t *testing.T) {
	for name, fsys := range map[string]FS{"os": OS{}, "mem": NewMem()} {
		path := filepath.Join(t.TempDir(), "sub", "state.bin")
		for _, payload := range []string{"first", "second, longer than the first"} {
			if err := WriteFile(fsys, path, []byte(payload)); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got, err := ReadFile(fsys, path)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if string(got) != payload {
				t.Fatalf("%s: read %q, want %q", name, got, payload)
			}
		}
		if _, err := fsys.ReadFile(path + TmpSuffix); !os.IsNotExist(err) {
			t.Fatalf("%s: temporary file left behind after a clean write", name)
		}
		entries, err := fsys.ReadDir(filepath.Dir(path))
		if err != nil || len(entries) != 1 || entries[0].Name() != "state.bin" || entries[0].IsDir() {
			t.Fatalf("%s: ReadDir = %v, %v; want exactly the committed file", name, entries, err)
		}
		if _, err := fsys.ReadDir(filepath.Join(filepath.Dir(path), "missing")); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("%s: ReadDir of a missing dir: err = %v, want ErrNotExist", name, err)
		}
	}
}

// writeOps measures how many mutating operations one successful
// WriteFile performs, so the crash sweep can enumerate them all.
func writeOps(t *testing.T) int {
	t.Helper()
	f := NewFaultFS(OS{})
	if err := WriteFile(f, filepath.Join(t.TempDir(), "probe.bin"), []byte("probe")); err != nil {
		t.Fatal(err)
	}
	return f.Ops()
}

// TestCrashPointSweep is the core durability proof: for a crash at
// every syscall boundary of an overwriting WriteFile, the destination
// afterwards holds either the complete old payload or the complete new
// payload — ReadFile (on a clean FS, simulating the restart) never
// reports corruption and never returns a mix.
func TestCrashPointSweep(t *testing.T) {
	old, new_ := []byte("old committed payload"), []byte("new payload being written when the machine died")
	total := writeOps(t)
	if total < 6 {
		t.Fatalf("WriteFile performed only %d ops; protocol steps missing", total)
	}

	for name, inner := range map[string]func() FS{"os": func() FS { return OS{} }, "mem": func() FS { return NewMem() }} {
		for k := 1; k <= total; k++ {
			disk := inner()
			dir := t.TempDir()
			if err := disk.MkdirAll(dir); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "state.bin")
			if err := WriteFile(disk, path, old); err != nil {
				t.Fatal(err)
			}
			f := NewFaultFS(disk)
			f.CrashAt(k)
			if err := WriteFile(f, path, new_); err == nil {
				t.Fatalf("%s: crash at op %d: WriteFile succeeded", name, k)
			}
			if !f.Crashed() {
				t.Fatalf("%s: crash at op %d never fired (run took %d ops)", name, k, f.Ops())
			}

			// Restart: reopen the directory with a clean FS.
			got, rerr := ReadFile(disk, path)
			if rerr != nil {
				t.Fatalf("%s: crash at op %d: post-crash read failed: %v", name, k, rerr)
			}
			if !bytes.Equal(got, old) && !bytes.Equal(got, new_) {
				t.Fatalf("%s: crash at op %d: destination holds neither old nor new payload: %q", name, k, got)
			}
		}
	}
}

// TestCrashPointSweepFreshFile covers first-ever writes: after a crash
// at any boundary the destination either does not exist or holds the
// complete payload; a leftover .tmp never validates as committed state.
func TestCrashPointSweepFreshFile(t *testing.T) {
	payload := []byte("first payload ever written to this path")
	total := writeOps(t)
	for k := 1; k <= total; k++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "state.bin")
		f := NewFaultFS(OS{})
		f.CrashAt(k)
		_ = WriteFile(f, path, payload)

		got, err := ReadFile(OS{}, path)
		switch {
		case os.IsNotExist(err):
			// Nothing committed — fine.
		case err != nil:
			t.Fatalf("crash at op %d: %v", k, err)
		case !bytes.Equal(got, payload):
			t.Fatalf("crash at op %d: committed partial payload %q", k, got)
		}
	}
}

// TestTornRenameDetected models a filesystem whose rename is not
// atomic: the destination ends up with half the frame. The CRC must
// refuse it — this is the failure mode the frame exists for.
func TestTornRenameDetected(t *testing.T) {
	total := writeOps(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "state.bin")
	f := NewFaultFS(OS{})
	f.TornRenames(true)
	f.CrashAt(total - 1) // the rename is the second-to-last op
	err := WriteFile(f, path, []byte("payload destined to tear"))
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("err = %v, want ErrCrashed at the rename", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("torn rename left no destination: %v", err)
	}
	if _, err := ReadFile(OS{}, path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn destination read back as valid: err = %v, want ErrCorrupt", err)
	}
}

// TestENOSPC: a full disk fails the write, leaves the destination's
// previous payload committed, and leaves no temporary file.
func TestENOSPC(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.bin")
	if err := WriteFile(OS{}, path, []byte("committed")); err != nil {
		t.Fatal(err)
	}
	f := NewFaultFS(OS{})
	f.FailWrites(syscall.ENOSPC)
	if err := WriteFile(f, path, []byte("doomed")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("err = %v, want ENOSPC", err)
	}
	got, err := ReadFile(OS{}, path)
	if err != nil || string(got) != "committed" {
		t.Fatalf("previous payload damaged: %q, %v", got, err)
	}
	if _, err := os.Stat(path + TmpSuffix); !os.IsNotExist(err) {
		t.Fatal("temporary file left behind after ENOSPC")
	}
}

// TestShortWrite: a torn in-place write errors out and never commits.
func TestShortWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.bin")
	f := NewFaultFS(OS{})
	f.ShortWrites(true)
	if err := WriteFile(f, path, []byte("will tear")); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("err = %v, want ErrShortWrite", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("short write committed a destination file")
	}
}

// TestOpCountDeterminism: the same workload takes the same number of
// operations, the property the crash sweep and the kill9 soak rely on.
func TestOpCountDeterminism(t *testing.T) {
	a, b := writeOps(t), writeOps(t)
	if a != b {
		t.Fatalf("op counts %d vs %d for identical workloads", a, b)
	}
}
