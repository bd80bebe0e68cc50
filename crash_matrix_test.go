package codecdb

import (
	"context"
	"testing"

	"codecdb/internal/core"
	"codecdb/internal/vfs"
)

// The crash-point matrix is the write path's acceptance test: one fixed
// workload runs once per possible crash point k — the k-th write-side
// filesystem operation (create, write, sync, rename, remove, syncdir)
// fails, a write failing mid-record persists a deterministic torn
// prefix, and every later write-side operation fails like a dead disk.
// Reopening through the real filesystem must then recover exactly the
// acknowledged state:
//
//   - every acknowledged append is present, in order (acked ⊆ recovered);
//   - anything extra is a prefix of what was submitted — rows whose WAL
//     write reached disk but whose ack was lost (recovered ⊆ submitted);
//   - no torn, corrupt, or reordered row is visible anywhere;
//   - verification and scrub come back clean, with nothing quarantined.

const crashRows = 24

// crashWorkload drives a fixed single-threaded ingest session against
// fsys: append 24 rows with two explicit flushes in between, then close.
// It returns how many appends were acknowledged. Errors after the crash
// point are expected and deliberately ignored — a crashing process does
// not get to act on them either.
func crashWorkload(t *testing.T, fsys vfs.FS, dir string) (acked int) {
	t.Helper()
	inner, err := core.Open(dir, core.Options{FS: fsys, DataThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	db := &DB{inner: inner}
	defer db.Close()
	tbl, err := db.CreateIngestTable("ev", ingestFields())
	if err != nil {
		return 0 // crashed before the table existed; nothing acked
	}
	for i := 0; i < crashRows; i++ {
		if err := tbl.Append(int64(i), float64(i)/2, statuses[i%3]); err != nil {
			return acked
		}
		acked++
		if i == 7 || i == 15 {
			_ = tbl.Flush() // flush failure does not retract acked rows
		}
	}
	return acked
}

func TestCrashPointMatrix(t *testing.T) {
	// Dry run on a fault-free FaultFS to size the matrix.
	dry := vfs.NewFaultFS(vfs.OS(), vfs.FaultConfig{Seed: 1})
	if got := crashWorkload(t, dry, t.TempDir()); got != crashRows {
		t.Fatalf("dry run acked %d of %d appends", got, crashRows)
	}
	totalOps := dry.WriteOps()
	if totalOps < 20 {
		t.Fatalf("workload issued only %d write ops; matrix would prove nothing", totalOps)
	}

	for k := int64(1); k <= totalOps; k++ {
		dir := t.TempDir()
		fs := vfs.NewFaultFS(vfs.OS(), vfs.FaultConfig{Seed: k})
		fs.CrashAfterWriteOps(k)
		acked := crashWorkload(t, fs, dir)
		if !fs.Crashed() {
			t.Fatalf("k=%d: crash point never reached (workload now issues %d ops?)", k, fs.WriteOps())
		}

		// Reopen through the real filesystem, as a restarted process would.
		inner, err := core.Open(dir, core.Options{DataThreads: 2})
		if err != nil {
			t.Fatalf("k=%d: reopen: %v", k, err)
		}
		db := &DB{inner: inner}
		tbl, err := db.Table("ev")
		if err != nil {
			// The crash predated the catalog entry; then nothing may have
			// been acknowledged.
			if acked != 0 {
				t.Fatalf("k=%d: table lost but %d appends acked", k, acked)
			}
			db.Close()
			continue
		}

		ids, err := tbl.All().Ints("id")
		if err != nil {
			t.Fatalf("k=%d: query recovered table: %v", k, err)
		}
		scores, err := tbl.All().Floats("score")
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		// acked ⊆ recovered ⊆ submitted, in submission order, no torn rows.
		if len(ids) < acked || len(ids) > crashRows {
			t.Fatalf("k=%d: recovered %d rows, acked %d, submitted %d", k, len(ids), acked, crashRows)
		}
		for i, id := range ids {
			if id != int64(i) {
				t.Fatalf("k=%d: recovered ids[%d] = %d (lost or reordered)", k, i, id)
			}
			if scores[i] != float64(i)/2 {
				t.Fatalf("k=%d: row %d has corrupt score %v", k, i, scores[i])
			}
		}
		if n, err := tbl.Where("status", Eq, "ERROR").Count(); err != nil {
			t.Fatalf("k=%d: predicate over recovered table: %v", k, err)
		} else {
			want := int64(0)
			for i := 0; i < len(ids); i++ {
				if i%3 == 2 {
					want++
				}
			}
			if n != want {
				t.Fatalf("k=%d: predicate count %d, want %d", k, n, want)
			}
		}
		if err := tbl.Verify(context.Background()); err != nil {
			t.Fatalf("k=%d: verify after recovery: %v", k, err)
		}
		rep, err := tbl.Scrub(context.Background())
		if err != nil {
			t.Fatalf("k=%d: scrub after recovery: %v", k, err)
		}
		if len(rep.Quarantined) != 0 {
			// A pure crash (no bit rot) must never quarantine: shards are
			// published by rename only after a successful sync.
			t.Fatalf("k=%d: crash quarantined shards: %+v", k, rep.Quarantined)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("k=%d: close: %v", k, err)
		}
	}
	t.Logf("crash matrix: %d crash points, all recovered to the acked state", totalOps)
}

// TestCrashMatrixDoubleCrash re-crashes during the recovery flush: after
// a first crash mid-flush, the reopened table flushes its replayed rows
// while a second crash point is armed. The second recovery must still
// hold every acked row exactly once.
func TestCrashMatrixDoubleCrash(t *testing.T) {
	// First pass: find how many ops the post-crash recovery flush issues.
	dir := t.TempDir()
	fs := vfs.NewFaultFS(vfs.OS(), vfs.FaultConfig{Seed: 7})
	// Crash mid-first-flush: flush of rows 0..7 starts around the tmp
	// create; pick a point well inside the workload.
	fs.CrashAfterWriteOps(20)
	acked := crashWorkload(t, fs, dir)
	if !fs.Crashed() {
		t.Skip("crash point 20 beyond workload; covered by the matrix")
	}

	reopenAndFlush := func(fsys vfs.FS) (int, error) {
		inner, err := core.Open(dir, core.Options{FS: fsys, DataThreads: 2})
		if err != nil {
			return 0, err
		}
		db := &DB{inner: inner}
		defer db.Close()
		tbl, err := db.Table("ev")
		if err != nil {
			return 0, err
		}
		_ = tbl.Flush() // may crash again; acked rows must survive regardless
		ids, err := tbl.All().Ints("id")
		if err != nil {
			return 0, err
		}
		return len(ids), nil
	}

	dry := vfs.NewFaultFS(vfs.OS(), vfs.FaultConfig{Seed: 8})
	if _, err := reopenAndFlush(dry); err != nil {
		t.Fatalf("first recovery: %v", err)
	}
	for k := int64(1); k <= dry.WriteOps(); k++ {
		fs2 := vfs.NewFaultFS(vfs.OS(), vfs.FaultConfig{Seed: 100 + k})
		fs2.CrashAfterWriteOps(k)
		_, _ = reopenAndFlush(fs2) // second crash, possibly mid-recovery-flush

		inner, err := core.Open(dir, core.Options{DataThreads: 2})
		if err != nil {
			t.Fatalf("k=%d: final reopen: %v", k, err)
		}
		db := &DB{inner: inner}
		tbl, err := db.Table("ev")
		if err != nil {
			t.Fatalf("k=%d: table lost after double crash: %v", k, err)
		}
		ids, err := tbl.All().Ints("id")
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if len(ids) < acked {
			t.Fatalf("k=%d: double crash lost acked rows: %d < %d", k, len(ids), acked)
		}
		for i, id := range ids {
			if id != int64(i) {
				t.Fatalf("k=%d: ids[%d] = %d after double crash", k, i, id)
			}
		}
		if err := tbl.Verify(context.Background()); err != nil {
			t.Fatalf("k=%d: verify: %v", k, err)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("k=%d: close: %v", k, err)
		}
	}
}
