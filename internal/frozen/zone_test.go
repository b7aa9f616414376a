package frozen

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"phoebedb/internal/pax"
	"phoebedb/internal/rel"
	"phoebedb/internal/storage"
)

// zoneSchema has one int and one float column to prune on.
func zoneSchema() *rel.Schema {
	return rel.NewSchema(
		rel.Column{Name: "k", Type: rel.TInt64},
		rel.Column{Name: "x", Type: rel.TFloat64},
		rel.Column{Name: "tag", Type: rel.TString},
	)
}

func newZoneStore(t *testing.T, blockRows int) (*Store, *storage.BlockFile) {
	t.Helper()
	bf, err := storage.OpenBlockFile(filepath.Join(t.TempDir(), "frozen.blocks"), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bf.Close() })
	s := NewStore(bf, zoneSchema())
	s.BlockRows = blockRows
	return s, bf
}

// rowAccepts is the row-at-a-time oracle for a conjunction of fixed-width
// predicates, with Go's comparison semantics (NaN compares unequal to
// everything, itself included).
func rowAccepts(row rel.Row, preds []rel.ColPred) bool {
	for _, p := range preds {
		v := row[p.Col]
		var lt, eq, gt bool
		if v.Kind == rel.TInt64 {
			lt, eq, gt = v.I < p.Val.I, v.I == p.Val.I, v.I > p.Val.I
		} else {
			lt, eq, gt = v.F < p.Val.F, v.F == p.Val.F, v.F > p.Val.F
		}
		var ok bool
		switch p.Op {
		case rel.CmpEq:
			ok = eq
		case rel.CmpNe:
			ok = !eq
		case rel.CmpLt:
			ok = lt
		case rel.CmpLe:
			ok = lt || eq
		case rel.CmpGt:
			ok = gt
		case rel.CmpGe:
			ok = gt || eq
		}
		if !ok {
			return false
		}
	}
	return true
}

// For random range and != predicates over int and float columns, NaN
// included, pruned scans select exactly the rows an unpruned scan
// filtered row by row selects.
func TestPruningEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s, _ := newZoneStore(t, 16)
	s.Fanout = 3
	// x clusters by rid so zones are selective; a few blocks are constant
	// apart from one NaN, and some rows are NaN outright.
	x := func(rid int) float64 {
		switch {
		case rid%97 == 0:
			return math.NaN()
		case rid >= 200 && rid < 232:
			return 5
		}
		return float64(rid/40) + rng.Float64()
	}
	rid := 1
	for seg := 0; seg < 8; seg++ {
		n := 30 + rng.Intn(60)
		ids := make([]rel.RowID, n)
		rows := make([]rel.Row, n)
		for i := range ids {
			rid += 1 + rng.Intn(2)
			ids[i] = rel.RowID(rid)
			rows[i] = rel.Row{rel.Int(int64(rid)), rel.Float(x(rid)), rel.Str(fmt.Sprintf("t%d", rid))}
		}
		mustFreeze(t, s, ids, rows)
		if seg == 4 {
			if _, err := s.CompactAll(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for r := 3; r < rid; r += 11 {
		s.MarkDeleted(rel.RowID(r))
	}
	s.MarkDeleted(rel.RowID(216)) // inside the constant block

	type hit struct {
		rid rel.RowID
		row rel.Row
	}
	var all []hit
	before := s.Stats().BlocksPruned
	if err := s.ScanBlocks(nil, func(ids []rel.RowID, page *pax.Page, sel pax.Sel) bool {
		sel.ForEach(func(i int) bool {
			all = append(all, hit{ids[i], page.Row(i)})
			return true
		})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().BlocksPruned - before; got != 0 {
		t.Fatalf("unfiltered scan pruned %d blocks", got)
	}

	ops := []rel.CmpOp{rel.CmpEq, rel.CmpNe, rel.CmpLt, rel.CmpLe, rel.CmpGt, rel.CmpGe}
	randPred := func() rel.ColPred {
		op := ops[rng.Intn(len(ops))]
		if rng.Intn(2) == 0 {
			return rel.ColPred{Col: 0, Op: op, Val: rel.Int(int64(rng.Intn(rid + 20)))}
		}
		var v float64
		switch rng.Intn(6) {
		case 0:
			v = math.NaN()
		case 1:
			v = 5
		default:
			v = float64(rng.Intn(rid/40 + 2))
		}
		return rel.ColPred{Col: 1, Op: op, Val: rel.Float(v)}
	}
	for trial := 0; trial < 400; trial++ {
		preds := []rel.ColPred{randPred()}
		if rng.Intn(3) == 0 {
			preds = append(preds, randPred())
		}
		got := scanRIDs(t, s, preds)
		var want []rel.RowID
		for _, h := range all {
			if rowAccepts(h.row, preds) {
				want = append(want, h.rid)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("preds %v:\n pruned scan %v\n row filter  %v", preds, got, want)
		}
	}

	// A selective window skips blocks, not only segments.
	before = s.Stats().BlocksPruned
	lo := int64(rid / 2)
	window := []rel.ColPred{{Col: 0, Op: rel.CmpGe, Val: rel.Int(lo)}, {Col: 0, Op: rel.CmpLt, Val: rel.Int(lo + 20)}}
	if got := scanRIDs(t, s, window); len(got) == 0 {
		t.Fatal("window selected nothing")
	}
	if got := s.Stats().BlocksPruned - before; got == 0 {
		t.Fatal("selective window pruned no blocks")
	}
}

// Block zones prune inside a segment that its own zone cannot refute:
// only the blocks overlapping the predicate are decompressed.
func TestScanBlocksBlockZonePruning(t *testing.T) {
	s, _ := newZoneStore(t, 10)
	ids := make([]rel.RowID, 100)
	rows := make([]rel.Row, 100)
	for i := range ids {
		ids[i] = rel.RowID(i + 1)
		rows[i] = rel.Row{rel.Int(int64(i + 1)), rel.Float(float64(i)), rel.Str("r")}
	}
	mustFreeze(t, s, ids, rows) // one segment, ten blocks, k in [1,100]
	before := s.Stats()
	got := scanRIDs(t, s, []rel.ColPred{{Col: 0, Op: rel.CmpGt, Val: rel.Int(85)}})
	if len(got) != 15 || got[0] != 86 {
		t.Fatalf("k > 85 = %v", got)
	}
	after := s.Stats()
	if read := after.CacheMisses + after.CacheHits - before.CacheMisses - before.CacheHits; read != 2 {
		t.Fatalf("%d blocks read for a predicate two blocks overlap", read)
	}
	if pruned := after.BlocksPruned - before.BlocksPruned; pruned != 8 {
		t.Fatalf("BlocksPruned = %d, want 8", pruned)
	}
}

// A float zone over a NaN is the NaN marker, at both block and segment
// level, so != cannot prune the NaN row away.
func TestZonesNaNMarker(t *testing.T) {
	s, bf := newZoneStore(t, 4)
	ids := make([]rel.RowID, 8)
	rows := make([]rel.Row, 8)
	for i := range ids {
		v := 3.0
		if i == 6 {
			v = math.NaN()
		}
		ids[i] = rel.RowID(i + 1)
		rows[i] = rel.Row{rel.Int(int64(i + 1)), rel.Float(v), rel.Str("r")}
	}
	mustFreeze(t, s, ids, rows)
	g := s.segs[0]
	if !g.zones[1].isNaN() || g.blockZones(0)[1].isNaN() || !g.blockZones(1)[1].isNaN() {
		t.Fatalf("float zones: segment %+v, blocks %+v %+v", g.zones[1], g.blockZones(0)[1], g.blockZones(1)[1])
	}
	if got := scanRIDs(t, s, []rel.ColPred{{Col: 1, Op: rel.CmpNe, Val: rel.Float(3)}}); fmt.Sprint(got) != "[7]" {
		t.Fatalf("x != 3 = %v", got)
	}
	m := s.Export()[0]
	data, err := bf.ReadBlock(m.Ref)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySegmentBytes(data, m); err != nil {
		t.Fatal(err)
	}
}

// zoneOffset returns the header offset of block bi's zone for segment
// zone zi (v2 layout: the block zones end just before the CRC).
func zoneOffset(g *segment, hdrLen, bi, zi int) int {
	nz := len(g.zones)
	return hdrLen - 4 - len(g.blocks)*nz*16 + (bi*nz+zi)*16
}

// VerifySegmentBytes rejects a block zone that no longer covers its
// block's values, even with every checksum recomputed to match: that is
// the damage that would silently drop rows from pruned scans.
func TestVerifyBlockZones(t *testing.T) {
	s, bf := newZoneStore(t, 8)
	ids := make([]rel.RowID, 32)
	rows := make([]rel.Row, 32)
	for i := range ids {
		ids[i] = rel.RowID(i + 1)
		rows[i] = rel.Row{rel.Int(int64(i + 1)), rel.Float(float64(i)), rel.Str("r")}
	}
	mustFreeze(t, s, ids, rows)
	m := s.Export()[0]
	data, err := bf.ReadBlock(m.Ref)
	if err != nil {
		t.Fatal(err)
	}
	g := s.segs[0]
	forge := func(edit func(hdr []byte)) ([]byte, SegmentMeta) {
		img := append([]byte(nil), data...)
		copy(img, reseal(img[:m.HeaderLen], edit))
		fm := m
		fm.CRC = crc32.ChecksumIEEE(img)
		return img, fm
	}
	// Block 1 holds k in [9,16]. Narrowing its max to 12 stays inside the
	// segment zone, so only the value check notices.
	off := zoneOffset(g, m.HeaderLen, 1, 0)
	img, fm := forge(func(h []byte) { binary.LittleEndian.PutUint64(h[off+8:], 12) })
	if err := VerifySegmentBytes(img, fm); err == nil || !strings.Contains(err.Error(), "zone") {
		t.Fatalf("narrowed block zone: %v", err)
	}
	// Widening past the segment zone fails the header shape check.
	img, fm = forge(func(h []byte) { binary.LittleEndian.PutUint64(h[off+8:], 1000) })
	if err := VerifySegmentBytes(img, fm); err == nil || !strings.Contains(err.Error(), "zone") {
		t.Fatalf("block zone outside segment zone: %v", err)
	}
	// min > max.
	img, fm = forge(func(h []byte) {
		binary.LittleEndian.PutUint64(h[off:], 15)
		binary.LittleEndian.PutUint64(h[off+8:], 10)
	})
	if err := VerifySegmentBytes(img, fm); err == nil || !strings.Contains(err.Error(), "zone") {
		t.Fatalf("inverted block zone: %v", err)
	}
	// A float block zone with one NaN bound is neither a range nor the
	// NaN marker.
	off = zoneOffset(g, m.HeaderLen, 2, 1)
	img, fm = forge(func(h []byte) { binary.LittleEndian.PutUint64(h[off:], nanBits) })
	if err := VerifySegmentBytes(img, fm); err == nil || !strings.Contains(err.Error(), "zone") {
		t.Fatalf("half-NaN block zone: %v", err)
	}
	if err := VerifySegmentBytes(data, m); err != nil {
		t.Fatalf("pristine segment rejected: %v", err)
	}
}

// A block decompresses only to exactly its directory's raw length.
func TestInflateBlockExactLength(t *testing.T) {
	s, bf := newZoneStore(t, 8)
	ids, rows := make([]rel.RowID, 8), make([]rel.Row, 8)
	for i := range ids {
		ids[i] = rel.RowID(i + 1)
		rows[i] = rel.Row{rel.Int(int64(i)), rel.Float(1), rel.Str("r")}
	}
	mustFreeze(t, s, ids, rows)
	g := s.segs[0]
	comp, err := bf.ReadBlock(g.bodyRef(0))
	if err != nil {
		t.Fatal(err)
	}
	want := g.blocks[0].rawLen
	raw, err := inflateBlock(comp, want)
	if err != nil || uint32(len(raw)) != want {
		t.Fatalf("inflate = %d bytes, %v; want %d", len(raw), err, want)
	}
	for _, n := range []uint32{0, want - 1, want + 1, 1 << 31} {
		if _, err := inflateBlock(comp, n); err == nil {
			t.Fatalf("raw length %d accepted for a %d-byte block", n, want)
		}
	}
	if _, err := inflateBlock(comp[:len(comp)/2], want); err == nil {
		t.Fatal("truncated stream accepted")
	}
}
