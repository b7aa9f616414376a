package backup_test

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"phoebedb/internal/backup"
	"phoebedb/internal/core"
	"phoebedb/internal/fault"
	"phoebedb/internal/frozen"
	"phoebedb/internal/rel"
	"phoebedb/internal/txn"
)

// openKV opens an engine on dir with a single WAL group and a small
// indexed kv table, the fixture every test here shares.
func openKV(t *testing.T, dir string) *core.Engine {
	t.Helper()
	e, err := core.Open(core.Config{
		Dir:        dir,
		Slots:      2,
		WALSync:    true,
		WALGroups:  1,
		WALGroupOf: func(int) int { return 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateTable("kv", rel.NewSchema(
		rel.Column{Name: "k", Type: rel.TInt64},
		rel.Column{Name: "v", Type: rel.TInt64},
	)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateIndex("kv", "kv_k", []string{"k"}, true); err != nil {
		t.Fatal(err)
	}
	return e
}

// attach opens an archiver over e's WAL and wires it into checkpointing.
func attach(t *testing.T, e *core.Engine, dir, archiveDir string) *backup.Archiver {
	t.Helper()
	a, err := backup.OpenArchiver(filepath.Join(dir, "wal"), archiveDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	e.SetWALArchiver(a)
	return a
}

// src wires e's WAL hooks into an online base backup.
func src(e *core.Engine, dir string) backup.BaseSource {
	return backup.BaseSource{
		DataDir: dir,
		MaxGSN:  e.WAL.MaxGSN,
		RaiseGSN: func(g uint64) {
			for i := 0; i < e.WAL.NumWriters(); i++ {
				e.WAL.Writer(i).RaiseGSN(g)
			}
		},
		FlushWAL: e.WAL.FlushAll,
	}
}

func put(t *testing.T, e *core.Engine, k, v int64) {
	t.Helper()
	tx := e.Begin(0, txn.ReadCommitted, nil, nil, nil)
	if _, err := tx.Insert("kv", rel.Row{rel.Int(k), rel.Int(v)}); err != nil {
		t.Fatalf("insert %d: %v", k, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit %d: %v", k, err)
	}
}

func scanAll(t *testing.T, e *core.Engine) map[int64]int64 {
	t.Helper()
	tx := e.Begin(1, txn.ReadCommitted, nil, nil, nil)
	defer tx.Commit()
	out := make(map[int64]int64)
	err := tx.ScanTable("kv", func(_ rel.RowID, row rel.Row) bool {
		out[row[0].I] = row[1].I
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// restoreAndScan restores the archive at targetGSN into a fresh dir,
// replays it through normal recovery, and returns the visible rows.
func restoreAndScan(t *testing.T, archiveDir string, targetGSN uint64) map[int64]int64 {
	t.Helper()
	dest := filepath.Join(t.TempDir(), "restored")
	if _, err := backup.Restore(archiveDir, dest, targetGSN); err != nil {
		t.Fatalf("restore (target %d): %v", targetGSN, err)
	}
	e := openKV(t, dest)
	defer e.Close()
	if _, err := e.Recover(); err != nil {
		t.Fatalf("restored recover (target %d): %v", targetGSN, err)
	}
	return scanAll(t, e)
}

// TestArchiveRestoreRoundtrip drives the full archive lifecycle — tail,
// checkpoint seal, online base backup, more tail — and proves a restore
// reproduces the primary exactly.
func TestArchiveRestoreRoundtrip(t *testing.T) {
	dir, arch := t.TempDir(), t.TempDir()
	e := openKV(t, dir)
	defer e.Close()
	a := attach(t, e, dir, arch)

	for k := int64(1); k <= 10; k++ {
		put(t, e, k, k*10)
	}
	if _, err := a.Archive(); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil { // seals epoch 0, truncates WAL
		t.Fatal(err)
	}
	for k := int64(11); k <= 20; k++ {
		put(t, e, k, k*10)
	}
	if _, _, err := a.BaseBackup(src(e, dir)); err != nil {
		t.Fatal(err)
	}
	for k := int64(21); k <= 30; k++ {
		put(t, e, k, k*10)
	}
	if _, err := a.Archive(); err != nil {
		t.Fatal(err)
	}
	if _, err := backup.Verify(arch); err != nil {
		t.Fatal(err)
	}

	got := restoreAndScan(t, arch, 0)
	if len(got) != 30 {
		t.Fatalf("restored %d rows, want 30", len(got))
	}
	for k := int64(1); k <= 30; k++ {
		if got[k] != k*10 {
			t.Fatalf("key %d restored as %d, want %d", k, got[k], k*10)
		}
	}
	if a.HorizonGSN() == 0 || a.Seals() != 1 || a.BaseBackups() != 1 {
		t.Fatalf("counters: horizon=%d seals=%d bases=%d", a.HorizonGSN(), a.Seals(), a.BaseBackups())
	}
}

// TestPITRExactPrefix proves point-in-time recovery is exact: restoring
// to the GSN horizon observed after commit i yields precisely commits
// 1..i — nothing torn, nothing extra — across targets that fall before
// the checkpoint, between checkpoint and base backup, and after the base
// backup.
func TestPITRExactPrefix(t *testing.T) {
	dir, arch := t.TempDir(), t.TempDir()
	e := openKV(t, dir)
	defer e.Close()
	a := attach(t, e, dir, arch)

	const total = 15
	gsn := make([]uint64, total+1)
	for k := int64(1); k <= total; k++ {
		put(t, e, k, k*10)
		// The commit record carries the transaction's highest GSN, and the
		// next transaction's records are all assigned above it, so this
		// horizon cuts exactly between commit k and commit k+1.
		gsn[k] = e.WAL.MaxGSN()
		switch k {
		case 5:
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		case 10:
			if _, _, err := a.BaseBackup(src(e, dir)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := a.Archive(); err != nil {
		t.Fatal(err)
	}

	for _, upto := range []int64{3, 7, 12, total} {
		target := gsn[upto]
		if upto == total {
			target = 0 // everything
		}
		got := restoreAndScan(t, arch, target)
		if len(got) != int(upto) {
			t.Fatalf("target gsn[%d]=%d: restored %d rows, want %d (rows %v)",
				upto, target, len(got), upto, got)
		}
		for k := int64(1); k <= upto; k++ {
			if got[k] != k*10 {
				t.Fatalf("target gsn[%d]: key %d restored as %d, want %d", upto, k, got[k], k*10)
			}
		}
	}
}

// flipByte flips one bit mid-file and returns an undo function.
func flipByte(t *testing.T, path string) func() {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatalf("%s is empty, nothing to corrupt", path)
	}
	orig := append([]byte(nil), data...)
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return func() {
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestVerifyCatchesCorruption flips a bit in every archive artifact class
// — manifest, segment bytes, base data file, backup label — and demands
// Verify report each one.
func TestVerifyCatchesCorruption(t *testing.T) {
	dir, arch := t.TempDir(), t.TempDir()
	e := openKV(t, dir)
	defer e.Close()
	a := attach(t, e, dir, arch)
	for k := int64(1); k <= 8; k++ {
		put(t, e, k, k)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.BaseBackup(src(e, dir)); err != nil {
		t.Fatal(err)
	}
	for k := int64(9); k <= 12; k++ {
		put(t, e, k, k)
	}
	if _, err := a.Archive(); err != nil {
		t.Fatal(err)
	}
	if _, err := backup.Verify(arch); err != nil {
		t.Fatalf("clean archive failed verify: %v", err)
	}

	m, err := backup.LoadManifest(arch)
	if err != nil {
		t.Fatal(err)
	}
	var segPath string
	for i := range m.Segments {
		if m.Segments[i].Length > 0 {
			segPath = backup.SegmentPath(arch, &m.Segments[i])
			break
		}
	}
	if segPath == "" {
		t.Fatal("no non-empty segment in archive")
	}
	targets := map[string]string{
		"manifest":  filepath.Join(arch, backup.ManifestName),
		"segment":   segPath,
		"base file": filepath.Join(arch, "base", "000000", "checkpoint.db"),
		"label":     filepath.Join(arch, "base", "000000", backup.LabelName),
	}
	for what, path := range targets {
		undo := flipByte(t, path)
		rep, err := backup.Verify(arch)
		if err == nil {
			// A corrupt base artifact may demote its base to incomplete
			// rather than fail the whole archive; either way the flip must
			// be reported.
			for _, b := range rep.Bases {
				if !b.Complete {
					err = fmt.Errorf("base %06d incomplete: %s", b.Seq, b.Problem)
				}
			}
		}
		if err == nil {
			t.Errorf("verify missed a flipped bit in the %s (%s)", what, path)
		}
		undo()
	}
	if _, err := backup.Verify(arch); err != nil {
		t.Fatalf("archive did not verify after undoing corruption: %v", err)
	}
}

// TestTornSegmentTailResync: bytes appended to a segment beyond the
// manifest-covered length are an unacknowledged torn tail (crash between
// segment fsync and manifest rewrite); reopening the archiver must
// discard them and resume archiving cleanly.
func TestTornSegmentTailResync(t *testing.T) {
	dir, arch := t.TempDir(), t.TempDir()
	e := openKV(t, dir)
	defer e.Close()
	a := attach(t, e, dir, arch)
	for k := int64(1); k <= 6; k++ {
		put(t, e, k, k)
	}
	if _, err := a.Archive(); err != nil {
		t.Fatal(err)
	}
	m, err := backup.LoadManifest(arch)
	if err != nil {
		t.Fatal(err)
	}
	seg := &m.Segments[0]
	segPath := backup.SegmentPath(arch, seg)
	f, err := os.OpenFile(segPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("torn-tail")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	a2, err := backup.OpenArchiver(filepath.Join(dir, "wal"), arch, 0)
	if err != nil {
		t.Fatalf("resync: %v", err)
	}
	st, err := os.Stat(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(st.Size()) != seg.Length {
		t.Fatalf("torn tail not truncated: size %d, covered %d", st.Size(), seg.Length)
	}
	if _, err := backup.Verify(arch); err != nil {
		t.Fatalf("verify after resync: %v", err)
	}
	// The resynced archiver keeps working.
	e.SetWALArchiver(a2)
	put(t, e, 7, 7)
	if _, err := a2.Archive(); err != nil {
		t.Fatal(err)
	}
	got := restoreAndScan(t, arch, 0)
	if len(got) != 7 {
		t.Fatalf("restored %d rows, want 7", len(got))
	}
}

// TestIncompleteBaseIgnored: a base backup directory without a label (a
// crash before the label write) is reported incomplete by Verify and
// skipped by Restore in favor of an older complete base.
func TestIncompleteBaseIgnored(t *testing.T) {
	dir, arch := t.TempDir(), t.TempDir()
	e := openKV(t, dir)
	defer e.Close()
	a := attach(t, e, dir, arch)
	for k := int64(1); k <= 5; k++ {
		put(t, e, k, k)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.BaseBackup(src(e, dir)); err != nil {
		t.Fatal(err)
	}
	// Fake a crashed base backup: data files copied, label never written.
	half := filepath.Join(arch, "base", "000007")
	if err := os.MkdirAll(half, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(half, "checkpoint.db"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := backup.Verify(arch)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	var complete, incomplete int
	for _, b := range rep.Bases {
		if b.Complete {
			complete++
		} else {
			incomplete++
		}
	}
	if complete != 1 || incomplete != 1 {
		t.Fatalf("bases: %d complete, %d incomplete, want 1/1 (%+v)", complete, incomplete, rep.Bases)
	}
	r2, err := backup.Restore(arch, filepath.Join(t.TempDir(), "restored"), 0)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if r2.BaseSeq != 0 {
		t.Fatalf("restore used base %d, want the complete base 0", r2.BaseSeq)
	}
}

// TestSealFailureKeepsWAL: when archiving fails during the seal, the
// checkpoint must refuse to truncate the WAL — archive-before-truncate is
// the invariant that makes the archive a durability root. The next
// checkpoint, with the fault cleared, succeeds and loses nothing.
func TestSealFailureKeepsWAL(t *testing.T) {
	fault.Reset()
	defer fault.Reset()
	dir, arch := t.TempDir(), t.TempDir()
	e := openKV(t, dir)
	defer e.Close()
	a := attach(t, e, dir, arch)
	for k := int64(1); k <= 6; k++ {
		put(t, e, k, k)
	}
	if err := fault.Enable(fault.BackupArchiveCopy, "error"); err != nil {
		t.Fatal(err)
	}
	err := e.Checkpoint()
	if err == nil {
		t.Fatal("checkpoint succeeded with a failing archiver; WAL may have been truncated unarchived")
	}
	if !strings.Contains(err.Error(), "kept WAL") {
		t.Fatalf("checkpoint error %q does not indicate the WAL was kept", err)
	}
	fault.Reset()
	// Nothing lost: the WAL still holds the records the failed seal could
	// not archive, so the retried checkpoint archives and truncates them.
	if err := e.Checkpoint(); err != nil {
		t.Fatalf("retried checkpoint: %v", err)
	}
	put(t, e, 7, 7)
	if _, err := a.Archive(); err != nil {
		t.Fatal(err)
	}
	got := restoreAndScan(t, arch, 0)
	if len(got) != 7 {
		t.Fatalf("restored %d rows, want 7 (%v)", len(got), got)
	}
}

// TestSidecarSchemaJournal: phoebeserver keeps its DDL in an append-only
// journal next to the WAL, outside the log stream. The archiver snapshots
// it each round — cut at the last newline so a torn in-flight append never
// yields a half statement — and a restore that predates every base backup
// materializes it, so schema replay can run before WAL replay.
func TestSidecarSchemaJournal(t *testing.T) {
	dir := t.TempDir()
	arch := t.TempDir()
	e := openKV(t, dir)
	defer e.Close()
	a := attach(t, e, dir, arch)
	journal := filepath.Join(dir, backup.SidecarName)
	const whole = "CREATE TABLE t (id INT, v STRING)\n"
	if err := os.WriteFile(journal, []byte(whole+"CREATE TAB"), 0o644); err != nil {
		t.Fatal(err)
	}
	put(t, e, 1, 10)
	if _, err := a.Archive(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(arch, backup.SidecarName))
	if err != nil {
		t.Fatalf("archive sidecar: %v", err)
	}
	if string(got) != whole {
		t.Fatalf("archived sidecar %q, want torn tail cut to %q", got, whole)
	}
	dest := filepath.Join(t.TempDir(), "restored")
	if _, err := backup.Restore(arch, dest, 0); err != nil {
		t.Fatal(err)
	}
	rgot, err := os.ReadFile(filepath.Join(dest, backup.SidecarName))
	if err != nil {
		t.Fatalf("restored sidecar: %v", err)
	}
	if string(rgot) != whole {
		t.Fatalf("restored sidecar %q, want %q", rgot, whole)
	}
}

// TestColdBackupRestore proves a base backup carries the cold tier — the
// compacted, compressed segments in data.blocks plus the manifest epoch
// the checkpoint image names — and that restore and PITR reproduce frozen
// rows exactly. It then forges the label CRC over tampered segment bytes,
// so only the per-segment checksum recorded in the cold manifest can
// catch the damage.
func TestColdBackupRestore(t *testing.T) {
	dir, arch := t.TempDir(), t.TempDir()
	e := openKV(t, dir)
	defer e.Close()
	a := attach(t, e, dir, arch)

	// 300 rows = four sealed 64-row pages plus an open tail page; freeze
	// the sealed prefix into four L0 segments and compact them (Fanout 2
	// so the merge actually fires).
	const frozenRows, total = 256, 300
	for k := int64(1); k <= total; k++ {
		put(t, e, k, k*10)
	}
	for i := 0; i < 3; i++ {
		e.CollectGarbage() // release undo twins so page prefixes can freeze
	}
	tb, err := e.Table("kv")
	if err != nil {
		t.Fatal(err)
	}
	tb.Frozen.Fanout = 2
	for i := 0; i < 4; i++ {
		if _, err := e.FreezeTables(1, ^uint32(0)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.CompactColdAll(); err != nil {
		t.Fatal(err)
	}
	st := e.ColdStats()
	if st.Segments == 0 || st.Compactions == 0 {
		t.Fatalf("cold tier not populated: %+v", st)
	}
	if err := e.Checkpoint(); err != nil { // manifest durable, WAL sealed
		t.Fatal(err)
	}
	baseGSN := e.WAL.MaxGSN()
	label, bdir, err := a.BaseBackup(src(e, dir))
	if err != nil {
		t.Fatal(err)
	}
	var manFile string
	for _, f := range label.Files {
		if strings.HasPrefix(f.Name, "cold.manifest.") {
			manFile = f.Name
		}
	}
	if manFile == "" {
		t.Fatalf("base backup label carries no cold manifest: %+v", label.Files)
	}
	for k := int64(total + 1); k <= total+10; k++ {
		put(t, e, k, k*10)
	}
	if _, err := a.Archive(); err != nil {
		t.Fatal(err)
	}
	if _, err := backup.Verify(arch); err != nil {
		t.Fatal(err)
	}

	// Full restore: frozen rows and the post-backup hot tail both present,
	// and the cold tier came back as segments, not rehydrated heap pages.
	dest := filepath.Join(t.TempDir(), "restored")
	if _, err := backup.Restore(arch, dest, 0); err != nil {
		t.Fatal(err)
	}
	e2 := openKV(t, dest)
	if _, err := e2.Recover(); err != nil {
		t.Fatalf("restored recover: %v", err)
	}
	got := scanAll(t, e2)
	if len(got) != total+10 {
		t.Fatalf("restored %d rows, want %d", len(got), total+10)
	}
	for k := int64(1); k <= total+10; k++ {
		if got[k] != k*10 {
			t.Fatalf("key %d restored as %d, want %d", k, got[k], k*10)
		}
	}
	st2 := e2.ColdStats()
	if st2.Segments != st.Segments || st2.MaxLevel != st.MaxLevel {
		t.Fatalf("restored cold tier segments=%d level=%d, want segments=%d level=%d",
			st2.Segments, st2.MaxLevel, st.Segments, st.MaxLevel)
	}
	e2.Close()

	// PITR to the pre-backup horizon: the hot tail vanishes, every frozen
	// row survives.
	got = restoreAndScan(t, arch, baseGSN)
	if len(got) != total {
		t.Fatalf("PITR restored %d rows, want %d", len(got), total)
	}
	for k := int64(1); k <= frozenRows; k++ {
		if got[k] != k*10 {
			t.Fatalf("PITR key %d restored as %d, want %d", k, got[k], k*10)
		}
	}

	// Tamper with segment bytes in the copied block file and forge the
	// label entry so the file-level CRC matches again. verifyBaseFiles is
	// now blind; the manifest's per-segment checksum must still object.
	manData, err := os.ReadFile(filepath.Join(bdir, manFile))
	if err != nil {
		t.Fatal(err)
	}
	m, err := frozen.DecodeManifest(manData)
	if err != nil {
		t.Fatal(err)
	}
	seg := m.Tables[0].Segments[0]
	blocksPath := filepath.Join(bdir, "data.blocks")
	blocks, err := os.ReadFile(blocksPath)
	if err != nil {
		t.Fatal(err)
	}
	blocks[seg.Ref.Offset+int64(seg.HeaderLen)+4] ^= 0x01
	if err := os.WriteFile(blocksPath, blocks, 0o644); err != nil {
		t.Fatal(err)
	}
	for i := range label.Files {
		if label.Files[i].Name == "data.blocks" {
			label.Files[i].CRC = crc32.ChecksumIEEE(blocks)
			label.Files[i].Size = uint64(len(blocks))
		}
	}
	if err := os.WriteFile(filepath.Join(bdir, backup.LabelName), backup.EncodeLabel(label), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := backup.Verify(arch); err == nil || !strings.Contains(err.Error(), "segment") {
		t.Fatalf("Verify missed cold segment corruption under a forged label: %v", err)
	}
	blocks[seg.Ref.Offset+int64(seg.HeaderLen)+4] ^= 0x01 // undo

	// Narrow a block zone map and re-forge every checksum above it: the
	// header CRC, the segment CRC in the manifest, the manifest CRC in
	// the checkpoint image, and the label. Such a zone would silently drop
	// rows from pruned scans; only the per-value zone check can object.
	// Segment format v2 ends its header with the block zones (min u64,
	// max u64 per column per block) and then the header CRC, so the eight
	// bytes before the CRC are the last block's max for the last column.
	hdr := blocks[seg.Ref.Offset : seg.Ref.Offset+int64(seg.HeaderLen)]
	n := len(hdr)
	copy(hdr[n-12:n-4], hdr[n-20:n-12]) // max := min
	binary.LittleEndian.PutUint32(hdr[n-4:], crc32.ChecksumIEEE(hdr[:n-4]))
	m.Tables[0].Segments[0].CRC = crc32.ChecksumIEEE(blocks[seg.Ref.Offset : seg.Ref.Offset+int64(seg.Ref.Len)])
	manData = frozen.EncodeManifest(m)
	cpPath := filepath.Join(bdir, "checkpoint.db")
	cp, err := os.ReadFile(cpPath)
	if err != nil {
		t.Fatal(err)
	}
	// Checkpoint image: magic u32, version u32, gsn u64, clock u64, cold
	// manifest epoch u64, cold manifest CRC u32, ..., trailing CRC u32.
	binary.LittleEndian.PutUint32(cp[32:36], crc32.ChecksumIEEE(manData))
	binary.LittleEndian.PutUint32(cp[len(cp)-4:], crc32.ChecksumIEEE(cp[:len(cp)-4]))
	forged := map[string][]byte{"data.blocks": blocks, manFile: manData, "checkpoint.db": cp}
	for name, data := range forged {
		if err := os.WriteFile(filepath.Join(bdir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i := range label.Files {
		if data, ok := forged[label.Files[i].Name]; ok {
			label.Files[i].CRC = crc32.ChecksumIEEE(data)
			label.Files[i].Size = uint64(len(data))
		}
	}
	if err := os.WriteFile(filepath.Join(bdir, backup.LabelName), backup.EncodeLabel(label), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := backup.Verify(arch); err == nil || !strings.Contains(err.Error(), "zone map") {
		t.Fatalf("Verify missed a narrowed block zone map under forged checksums: %v", err)
	}
}
