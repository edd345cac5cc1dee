package ctrlplane

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Snapshot rotation: SaveSnapshotRotate keeps the last N generations
// and LoadSnapshotNewestLimit restores the newest one that verifies,
// falling back past damaged files.

// rotSnap builds a minimal distinguishable snapshot: NextLeaseID is
// the generation marker.
func rotSnap(id uint64) *Snapshot { return &Snapshot{NextLeaseID: id} }

// corrupt flips a byte near the end of the file, so the CRC check
// fails while magic and version stay intact.
func corrupt(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestSaveSnapshotRotateKeepsGenerations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ctrl.snap")
	for id := uint64(1); id <= 4; id++ {
		if err := SaveSnapshot(path, rotSnap(id), 3); err != nil {
			t.Fatal(err)
		}
	}
	// After four saves with keep=3: path=4, path.1=3, path.2=2; the
	// first generation fell off.
	for gen, want := range map[string]uint64{path: 4, path + ".1": 3, path + ".2": 2} {
		snap, _, err := LoadSnapshot(gen, 0, 1)
		if err != nil {
			t.Fatalf("%s: %v", gen, err)
		}
		if snap.NextLeaseID != want {
			t.Fatalf("%s holds generation %d, want %d", gen, snap.NextLeaseID, want)
		}
	}
	if _, err := os.Stat(path + ".3"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("generation beyond keep exists: %v", err)
	}

	snap, src, err := LoadSnapshot(path, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if snap.NextLeaseID != 4 || src != path {
		t.Fatalf("newest = generation %d from %s, want 4 from %s", snap.NextLeaseID, src, path)
	}
}

func TestSaveSnapshotRotateKeepOne(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ctrl.snap")
	for id := uint64(1); id <= 3; id++ {
		if err := SaveSnapshot(path, rotSnap(id), 1); err != nil {
			t.Fatal(err)
		}
	}
	if snap, _, err := LoadSnapshot(path, 0, 1); err != nil || snap.NextLeaseID != 3 {
		t.Fatalf("keep=1 snapshot = (%+v, %v), want generation 3", snap, err)
	}
	if _, err := os.Stat(path + ".1"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("keep=1 left a rotated generation: %v", err)
	}
}

func TestLoadSnapshotNewestFallsBackPastDamage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ctrl.snap")
	for id := uint64(1); id <= 3; id++ {
		if err := SaveSnapshot(path, rotSnap(id), 3); err != nil {
			t.Fatal(err)
		}
	}

	// Damage the newest file: restore falls back to path.1.
	corrupt(t, path)
	snap, src, err := LoadSnapshot(path, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if snap.NextLeaseID != 2 || src != path+".1" {
		t.Fatalf("fallback = generation %d from %s, want 2 from %s.1", snap.NextLeaseID, src, path)
	}

	// Damage path.1 too: path.2 still restores.
	corrupt(t, path+".1")
	snap, src, err = LoadSnapshot(path, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if snap.NextLeaseID != 1 || src != path+".2" {
		t.Fatalf("second fallback = generation %d from %s, want 1 from %s.2", snap.NextLeaseID, src, path)
	}

	// Every generation damaged: a descriptive error naming the newest
	// file's failure, not fs.ErrNotExist (the files exist, they are bad).
	corrupt(t, path+".2")
	_, _, err = LoadSnapshot(path, 0, 3)
	if err == nil || !strings.Contains(err.Error(), "no valid generation") {
		t.Fatalf("all-damaged error = %v, want a no-valid-generation error", err)
	}
	if errors.Is(err, fs.ErrNotExist) {
		t.Fatal("all-damaged error claims the snapshot does not exist")
	}
}

func TestLoadSnapshotNewestAllMissing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent.snap")
	_, _, err := LoadSnapshot(path, 0, 3)
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing-set error = %v, want fs.ErrNotExist (fresh deployment)", err)
	}
}
