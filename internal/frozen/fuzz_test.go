package frozen

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"phoebedb/internal/rel"
	"phoebedb/internal/storage"
)

// FuzzSegmentManifest throws arbitrary bytes at the manifest decoder: it
// must never panic, and anything it accepts must re-encode to an image
// that decodes to the same directory (no silent truncation or aliasing —
// a corrupted manifest that slips through would resurrect or lose cold
// segments at recovery).
func FuzzSegmentManifest(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeManifest(&Manifest{}))
	f.Add(EncodeManifest(&Manifest{
		Epoch: 3,
		Tables: []TableManifest{
			{Table: "kv", Segments: []SegmentMeta{
				{Level: 0, FirstRID: 1, LastRID: 64, NumRows: 60,
					Ref: storage.BlockRef{Offset: 8, Len: 2048}, HeaderLen: 96, CRC: 0x1234,
					Deleted: []rel.RowID{7}},
				{Level: 1, Flat: true, FirstRID: 65, LastRID: 128, NumRows: 64,
					Ref: storage.BlockRef{Offset: 2056, Len: 1024}, HeaderLen: 80, CRC: 0x5678},
			}},
			{Table: "orders"},
		},
	}))
	long := EncodeManifest(&Manifest{Epoch: ^uint64(0), Tables: []TableManifest{
		{Table: "very-long-table-name-with-unicode-éè", Segments: []SegmentMeta{
			{FirstRID: 1, LastRID: 1, NumRows: 1, Ref: storage.BlockRef{Len: 1}, HeaderLen: 1},
		}},
	}})
	f.Add(long)
	// A few corruptions of a valid image as seeds.
	for _, off := range []int{0, 8, len(long) / 2, len(long) - 1} {
		bad := append([]byte(nil), long...)
		bad[off] ^= 0xFF
		f.Add(bad)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			return
		}
		re := EncodeManifest(m)
		m2, err := DecodeManifest(re)
		if err != nil {
			t.Fatalf("re-encoded manifest rejected: %v", err)
		}
		if m.Epoch != m2.Epoch || len(m.Tables) != len(m2.Tables) {
			t.Fatalf("roundtrip drift: %+v vs %+v", m, m2)
		}
		for i := range m.Tables {
			if m.Tables[i].Table != m2.Tables[i].Table ||
				len(m.Tables[i].Segments) != len(m2.Tables[i].Segments) {
				t.Fatalf("table %d drift", i)
			}
		}
	})
}

// segmentImages returns whole segment images with their header lengths:
// the version-1 fixture segments and freshly written version-2 ones
// (zoned, NaN-marked and flat).
func segmentImages(f *testing.F) (imgs [][]byte, hlens []int) {
	f.Helper()
	blocks, err := os.ReadFile(filepath.Join("testdata", "v1", "frozen.blocks"))
	if err != nil {
		f.Fatal(err)
	}
	manData, err := os.ReadFile(filepath.Join("testdata", "v1", "cold.manifest"))
	if err != nil {
		f.Fatal(err)
	}
	man, err := DecodeManifest(manData)
	if err != nil {
		f.Fatal(err)
	}
	for _, m := range man.Tables[0].Segments {
		imgs = append(imgs, blocks[m.Ref.Offset:m.Ref.Offset+int64(m.Ref.Len)])
		hlens = append(hlens, m.HeaderLen)
	}
	bf, err := storage.OpenBlockFile(filepath.Join(f.TempDir(), "frozen.blocks"), nil)
	if err != nil {
		f.Fatal(err)
	}
	defer bf.Close()
	for _, flat := range []bool{false, true} {
		s := NewStore(bf, v1Schema())
		s.BlockRows, s.Flat = 4, flat
		ids := make([]rel.RowID, 10)
		rows := make([]rel.Row, 10)
		for i := range ids {
			x := float64(i)
			if i == 5 {
				x = math.NaN()
			}
			ids[i] = rel.RowID(3 * (i + 1))
			rows[i] = rel.Row{rel.Int(int64(i)), rel.Float(x), rel.Str("fz")}
		}
		if err := s.Freeze(ids, rows); err != nil {
			f.Fatal(err)
		}
		m := s.Export()[0]
		img, err := bf.ReadBlock(m.Ref)
		if err != nil {
			f.Fatal(err)
		}
		imgs = append(imgs, img)
		hlens = append(hlens, m.HeaderLen)
	}
	return imgs, hlens
}

// FuzzSegmentHeader feeds arbitrary bytes, and mutations of valid version
// 1 and 2 segment images, to the header decoder and the segment verifier.
// Neither may panic, and every accepted header must describe ordered,
// disjoint block rid ranges with well-formed zones, block zones inside
// their segment's. When reseal is set the header CRC is recomputed after
// mutation so the fuzzer reaches the parser behind it.
func FuzzSegmentHeader(f *testing.F) {
	f.Add([]byte{}, 0, false)
	f.Add([]byte("PCS1 not a segment"), 8, true)
	imgs, hlens := segmentImages(f)
	for i, img := range imgs {
		f.Add(img, hlens[i], false)
		for _, off := range []int{4, 13, 17, hlens[i] / 2, hlens[i] - 5, hlens[i] + 3} {
			bad := append([]byte(nil), img...)
			bad[off] ^= 0x41
			f.Add(bad, hlens[i], true)
		}
	}

	f.Fuzz(func(t *testing.T, img []byte, hlen int, reseal bool) {
		if hlen < 4 || hlen > len(img) {
			return
		}
		img = append([]byte(nil), img...)
		if reseal {
			binary.LittleEndian.PutUint32(img[hlen-4:], crc32.ChecksumIEEE(img[:hlen-4]))
		}
		g, err := decodeSegmentHeader(img[:hlen])
		if err != nil {
			return
		}
		rows := 0
		for i, b := range g.blocks {
			if b.firstRID > b.lastRID || (i > 0 && b.firstRID <= g.blocks[i-1].lastRID) {
				t.Fatalf("accepted block %d rid range [%d,%d] out of order", i, b.firstRID, b.lastRID)
			}
			rows += int(b.numRows)
			for k, z := range g.blockZones(i) {
				if !z.wellFormed() || !g.zones[k].covers(z) {
					t.Fatalf("accepted block %d zone %+v outside %+v", i, z, g.zones[k])
				}
			}
		}
		if rows != g.numRows || g.firstRID != g.blocks[0].firstRID || g.lastRID != g.blocks[len(g.blocks)-1].lastRID {
			t.Fatalf("accepted header disagrees with its directory")
		}
		for _, z := range g.zones {
			if !z.wellFormed() {
				t.Fatalf("accepted malformed zone %+v", z)
			}
		}
		m := SegmentMeta{
			Level: g.level, Flat: g.flat, FirstRID: g.firstRID, LastRID: g.lastRID, NumRows: g.numRows,
			Ref: storage.BlockRef{Len: int32(len(img))}, HeaderLen: hlen, CRC: crc32.ChecksumIEEE(img),
		}
		_ = VerifySegmentBytes(img, m)
	})
}
