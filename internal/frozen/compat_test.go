package frozen

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"phoebedb/internal/pax"
	"phoebedb/internal/rel"
	"phoebedb/internal/storage"
)

// testdata/v1 holds a block file and cold manifest written by the
// version-1 segment encoder, which had segment zones but no block zones.
// Schema (k INT, score FLOAT, tag STRING), 8-row blocks:
//
//	segment 0: rids 1..40, k = rid, score = 3 except rid 17 = NaN, 5 blocks
//	segment 1: rids 101..120, k = rid, score = rid/2, 3 blocks
//	tag = "v1-row-<rid>"; rids 5 and 110 are tombstoned in the manifest.
//
// The NaN row is what the v1 encoder got wrong: its score zone reads
// [3, 3] although one row is NaN.
func v1Schema() *rel.Schema {
	return rel.NewSchema(
		rel.Column{Name: "k", Type: rel.TInt64},
		rel.Column{Name: "score", Type: rel.TFloat64},
		rel.Column{Name: "tag", Type: rel.TString},
	)
}

func v1Live(rid int) bool { return rid != 5 && rid != 110 }

// openV1Fixture copies the fixture block file into a temp dir and returns
// the blocks image, the manifest segments and a store imported from them.
func openV1Fixture(t *testing.T) ([]byte, []SegmentMeta, *Store) {
	t.Helper()
	blocks, err := os.ReadFile(filepath.Join("testdata", "v1", "frozen.blocks"))
	if err != nil {
		t.Fatal(err)
	}
	manData, err := os.ReadFile(filepath.Join("testdata", "v1", "cold.manifest"))
	if err != nil {
		t.Fatal(err)
	}
	man, err := DecodeManifest(manData)
	if err != nil {
		t.Fatal(err)
	}
	metas := man.Tables[0].Segments
	path := filepath.Join(t.TempDir(), "frozen.blocks")
	if err := os.WriteFile(path, blocks, 0o644); err != nil {
		t.Fatal(err)
	}
	bf, err := storage.OpenBlockFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bf.Close() })
	s := NewStore(bf, v1Schema())
	if err := s.Import(metas); err != nil {
		t.Fatalf("import v1 manifest: %v", err)
	}
	return blocks, metas, s
}

// scanRIDs returns the rids ScanBlocks emits after FilterFixed.
func scanRIDs(t *testing.T, s *Store, preds []rel.ColPred) []rel.RowID {
	t.Helper()
	var out []rel.RowID
	if err := s.ScanBlocks(preds, func(ids []rel.RowID, page *pax.Page, sel pax.Sel) bool {
		if err := page.FilterFixed(preds, sel); err != nil {
			t.Fatal(err)
		}
		sel.ForEach(func(i int) bool {
			out = append(out, ids[i])
			return true
		})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestV1SegmentFixture(t *testing.T) {
	blocks, metas, s := openV1Fixture(t)
	if len(metas) != 2 || s.NumSegments() != 2 {
		t.Fatalf("fixture has %d segments", len(metas))
	}

	var all []int
	for rid := 1; rid <= 40; rid++ {
		all = append(all, rid)
	}
	for rid := 101; rid <= 120; rid++ {
		all = append(all, rid)
	}
	var want []rel.RowID
	for _, rid := range all {
		row, ok, err := s.Get(rel.RowID(rid))
		if err != nil {
			t.Fatal(err)
		}
		if ok != v1Live(rid) {
			t.Fatalf("Get(%d) present=%v", rid, ok)
		}
		if !ok {
			continue
		}
		want = append(want, rel.RowID(rid))
		if row[0].I != int64(rid) || row[2].S != fmt.Sprintf("v1-row-%d", rid) {
			t.Fatalf("Get(%d) = %v", rid, row)
		}
		if rid == 17 != math.IsNaN(row[1].F) {
			t.Fatalf("Get(%d) score = %v", rid, row[1].F)
		}
	}
	if got := scanRIDs(t, s, nil); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("ScanBlocks(nil) = %v, want %v", got, want)
	}

	// A k range that segment 0's zone refutes.
	got := scanRIDs(t, s, []rel.ColPred{{Col: 0, Op: rel.CmpGe, Val: rel.Int(100)}})
	if len(got) != 19 || got[0] != 101 {
		t.Fatalf("k >= 100 = %v", got)
	}
	// v1 float zones did not account for NaN: the NaN row must survive
	// score != 3 although segment 0's recorded zone is [3, 3].
	got = scanRIDs(t, s, []rel.ColPred{{Col: 1, Op: rel.CmpNe, Val: rel.Float(3)}})
	if len(got) != 20 || got[0] != 17 {
		t.Fatalf("score != 3 = %v", got)
	}

	for i, m := range metas {
		if err := VerifySegmentBytes(blocks[m.Ref.Offset:m.Ref.Offset+int64(m.Ref.Len)], m); err != nil {
			t.Fatalf("verify v1 segment %d: %v", i, err)
		}
	}
}

// Only the known segment versions decode: a header claiming version 0 or
// 3 is rejected even with a valid CRC.
func TestSegmentVersionGate(t *testing.T) {
	blocks, metas, _ := openV1Fixture(t)
	m := metas[0]
	hdr := append([]byte(nil), blocks[m.Ref.Offset:m.Ref.Offset+int64(m.HeaderLen)]...)
	for _, v := range []uint32{0, 3} {
		bad := reseal(hdr, func(b []byte) { binary.LittleEndian.PutUint32(b[4:8], v) })
		_, err := decodeSegmentHeader(bad)
		if err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("version %d: err = %v", v, err)
		}
	}
}

// reseal returns a copy of a segment header with edit applied and the
// header CRC recomputed.
func reseal(hdr []byte, edit func([]byte)) []byte {
	out := append([]byte(nil), hdr...)
	edit(out)
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(out[:len(out)-4]))
	return out
}
