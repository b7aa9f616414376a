package frozen

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"phoebedb/internal/pax"
	"phoebedb/internal/rel"
	"phoebedb/internal/storage"
)

// Segment on-disk format ("PCS1"): a self-describing run of sorted cold
// rows stored as independently compressed column-strip blocks.
//
//	magic u32 | version u32 | level u32 | flags u8 | numRows u32 | numBlocks u32
//	per block: firstRID u64 | lastRID u64 | numRows u32 | rawLen u32 | compOff u32 | compLen u32
//	bloomPresent u8 [ bloom: hashes u32, numWords u32, words u64[] ]
//	zonesPresent u8 [ numZones u16, per zone: col u16, kind u8, min u64, max u64
//	                  v2: per block, per zone: min u64, max u64 ]
//	headerCRC u32
//	body: concatenated DEFLATE blocks, each raw = count u32, ids u64[], pax image
//
// compOff is relative to the body start (header end), so a point read
// issues one small sub-range read of exactly the block it needs. The
// header CRC covers everything before it; the whole-segment CRC recorded
// in the manifest covers header+body and is what backup verification
// checks.
//
// Version 2 adds the block zones: one min/max per segment zone per block,
// in segment-zone order, so scans skip single blocks as well as whole
// segments. Version 1 segments (segment zones only) still decode; their
// float zones are read as the NaN marker (see zone), because the version
// 1 encoder ignored NaN rows when it folded them.
const (
	segmentMagic     uint32 = 0x50435331 // "PCS1"
	segmentVersion   uint32 = 2
	segmentVersionV1 uint32 = 1

	segFlagFlat byte = 1 << 0 // flat ablation segment: one block, no bloom/zones
)

// DefaultBlockRows is the row count per compressed block inside a segment:
// small enough that a point read decompresses a few tens of KB, large
// enough that flate still finds redundancy and scans amortize the per-
// block directory walk.
const DefaultBlockRows = 512

// DefaultFanout is the per-level segment count that triggers a merge into
// the next level.
const DefaultFanout = 4

func errTruncated(what string) error {
	return fmt.Errorf("frozen: truncated segment: %s", what)
}

// zone is a per-column-strip min/max summary. Only fixed-width columns
// carry zones; min/max hold the raw 8-byte minipage encoding interpreted
// by kind. A float zone over a strip holding a NaN is the NaN marker: min
// and max both NaN. Every comparison against it is false, so it never
// prunes — a NaN row satisfies !=, which no [min, max] range refutes.
type zone struct {
	col  uint16
	kind rel.Type
	min  uint64
	max  uint64
}

var nanBits = math.Float64bits(math.NaN())

// isNaN reports whether z is the NaN marker.
func (z zone) isNaN() bool {
	return z.kind == rel.TFloat64 &&
		math.IsNaN(math.Float64frombits(z.min)) && math.IsNaN(math.Float64frombits(z.max))
}

// widen extends z to cover the range [min, max] (min == max for one
// value). A NaN bound turns a float zone into the NaN marker, which then
// stays.
func (z *zone) widen(min, max uint64) {
	if z.kind == rel.TFloat64 && (z.isNaN() ||
		math.IsNaN(math.Float64frombits(min)) || math.IsNaN(math.Float64frombits(max))) {
		z.min, z.max = nanBits, nanBits
		return
	}
	if zoneLess(z.kind, min, z.min) {
		z.min = min
	}
	if zoneLess(z.kind, z.max, max) {
		z.max = max
	}
}

// wellFormed reports whether z is a known fixed-width kind with
// min <= max, or the NaN marker.
func (z zone) wellFormed() bool {
	switch z.kind {
	case rel.TInt64:
		return int64(z.min) <= int64(z.max)
	case rel.TFloat64:
		return z.isNaN() || math.Float64frombits(z.min) <= math.Float64frombits(z.max)
	}
	return false
}

// covers reports whether every value inner summarizes lies within z.
func (z zone) covers(inner zone) bool {
	if z.isNaN() {
		return true
	}
	return !inner.isNaN() && !zoneLess(z.kind, inner.min, z.min) && !zoneLess(z.kind, z.max, inner.max)
}

// prunes reports whether the predicate provably rejects every row whose
// column value lies within the zone.
func (z zone) prunes(p rel.ColPred) bool {
	switch z.kind {
	case rel.TInt64:
		if p.Val.Kind != rel.TInt64 {
			return false
		}
		return prunesOrdered(int64(z.min), int64(z.max), p.Val.I, p.Op)
	case rel.TFloat64:
		if p.Val.Kind != rel.TFloat64 || z.isNaN() {
			return false
		}
		return prunesOrdered(math.Float64frombits(z.min), math.Float64frombits(z.max), p.Val.F, p.Op)
	}
	return false
}

func prunesOrdered[T int64 | float64](min, max, v T, op rel.CmpOp) bool {
	switch op {
	case rel.CmpEq:
		return v < min || v > max
	case rel.CmpNe:
		return min == v && max == v
	case rel.CmpLt:
		return min >= v
	case rel.CmpLe:
		return min > v
	case rel.CmpGt:
		return max <= v
	case rel.CmpGe:
		return max < v
	}
	return false
}

// zonesPrune reports whether any predicate alone rejects the whole zone
// range (predicates are conjunctive).
func zonesPrune(zones []zone, preds []rel.ColPred) bool {
	if len(zones) == 0 || len(preds) == 0 {
		return false
	}
	for _, p := range preds {
		for _, z := range zones {
			if int(z.col) == p.Col && z.prunes(p) {
				return true
			}
		}
	}
	return false
}

// segBlock is one compressed block's directory entry.
type segBlock struct {
	firstRID rel.RowID
	lastRID  rel.RowID
	numRows  uint32
	rawLen   uint32
	compOff  uint32
	compLen  uint32
}

// segment is an immutable on-disk run plus its mutable read-side state
// (tombstones, per-block warm counters).
type segment struct {
	firstRID  rel.RowID
	lastRID   rel.RowID
	numRows   int
	level     int
	flat      bool
	ref       storage.BlockRef // whole segment: header + body
	headerLen int
	crc       uint32 // whole-segment CRC (manifest / backup verification)
	blocks    []segBlock
	filter    *bloom
	zones     []zone
	// blockZ holds each block's zones, len(zones) per block in zone
	// order; nil for version 1 and flat segments.
	blockZ []zone

	reads []atomic.Uint32 // per block, drives warming

	mu      sync.Mutex
	deleted map[rel.RowID]bool
}

// blockFor locates the block holding rid, or -1.
func (g *segment) blockFor(rid rel.RowID) int {
	lo, hi := 0, len(g.blocks)
	for lo < hi {
		mid := (lo + hi) / 2
		if g.blocks[mid].lastRID < rid {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(g.blocks) || g.blocks[lo].firstRID > rid {
		return -1
	}
	return lo
}

// blockZones returns block i's zones (nil when the segment has none).
func (g *segment) blockZones(i int) []zone {
	if g.blockZ == nil {
		return nil
	}
	nz := len(g.zones)
	return g.blockZ[i*nz : (i+1)*nz : (i+1)*nz]
}

// bodyRef returns the sub-range BlockRef of block i's compressed bytes.
func (g *segment) bodyRef(i int) storage.BlockRef {
	b := g.blocks[i]
	return storage.BlockRef{
		Offset: g.ref.Offset + int64(g.headerLen) + int64(b.compOff),
		Len:    int32(b.compLen),
	}
}

// --- Builder -----------------------------------------------------------------

// segmentBuilder accumulates rows in rid order and emits one encoded
// segment: blocks are cut every blockRows rows, each compressed
// independently; each block folds its own zones, which widen the
// segment's; the bloom filter accumulates across all rows.
type segmentBuilder struct {
	schema    *rel.Schema
	level     int
	flat      bool
	blockRows int

	ids    []rel.RowID // all rids, for the bloom filter
	blocks []segBlock
	body   bytes.Buffer

	curIDs   []rel.RowID
	curPage  *pax.Page
	curZones []zone // zones of the open block

	zones    []zone
	blockZ   []zone // closed blocks' zones, len(zones) per block
	rawTotal int64
}

func newSegmentBuilder(schema *rel.Schema, level int, flat bool, blockRows int) *segmentBuilder {
	if blockRows <= 0 {
		blockRows = DefaultBlockRows
	}
	return &segmentBuilder{schema: schema, level: level, flat: flat, blockRows: blockRows}
}

func (sb *segmentBuilder) add(id rel.RowID, row rel.Row) error {
	if n := len(sb.ids); n > 0 && id <= sb.ids[n-1] {
		return fmt.Errorf("frozen: row_ids not ascending (%d after %d)", id, sb.ids[n-1])
	}
	if sb.curPage == nil {
		sb.curPage = pax.NewPage(sb.schema, sb.blockRows)
		sb.curIDs = sb.curIDs[:0]
	}
	if _, err := sb.curPage.Append(row); err != nil {
		return err
	}
	sb.curIDs = append(sb.curIDs, id)
	sb.ids = append(sb.ids, id)
	if !sb.flat {
		sb.foldZones(row)
	}
	if !sb.flat && sb.curPage.Len() >= sb.blockRows {
		return sb.flushBlock()
	}
	return nil
}

// foldZones widens the open block's zones by one row.
func (sb *segmentBuilder) foldZones(row rel.Row) {
	if sb.curZones == nil {
		for ci, c := range sb.schema.Cols {
			if c.Type.FixedWidth() <= 0 {
				continue
			}
			v := rawBits(row[ci])
			z := zone{col: uint16(ci), kind: c.Type, min: v, max: v}
			z.widen(v, v) // a NaN becomes the marker
			sb.curZones = append(sb.curZones, z)
		}
		return
	}
	for i := range sb.curZones {
		v := rawBits(row[int(sb.curZones[i].col)])
		sb.curZones[i].widen(v, v)
	}
}

func rawBits(v rel.Value) uint64 {
	if v.Kind == rel.TFloat64 {
		return math.Float64bits(v.F)
	}
	return uint64(v.I)
}

func zoneLess(kind rel.Type, a, b uint64) bool {
	if kind == rel.TFloat64 {
		return math.Float64frombits(a) < math.Float64frombits(b)
	}
	return int64(a) < int64(b)
}

func (sb *segmentBuilder) flushBlock() error {
	if sb.curPage == nil || sb.curPage.Len() == 0 {
		return nil
	}
	n := sb.curPage.Len()
	raw := make([]byte, 0, 4+8*n+sb.curPage.SerializedSize())
	var b8 [8]byte
	binary.LittleEndian.PutUint32(b8[:4], uint32(n))
	raw = append(raw, b8[:4]...)
	for _, id := range sb.curIDs {
		binary.LittleEndian.PutUint64(b8[:], uint64(id))
		raw = append(raw, b8[:]...)
	}
	raw = sb.curPage.Serialize(raw)

	compOff := sb.body.Len()
	fw, err := flate.NewWriter(&sb.body, flate.BestSpeed)
	if err != nil {
		return err
	}
	if _, err := fw.Write(raw); err != nil {
		return err
	}
	if err := fw.Close(); err != nil {
		return err
	}
	sb.rawTotal += int64(len(raw))
	sb.blocks = append(sb.blocks, segBlock{
		firstRID: sb.curIDs[0],
		lastRID:  sb.curIDs[n-1],
		numRows:  uint32(n),
		rawLen:   uint32(len(raw)),
		compOff:  uint32(compOff),
		compLen:  uint32(sb.body.Len() - compOff),
	})
	if !sb.flat {
		sb.blockZ = append(sb.blockZ, sb.curZones...)
		if sb.zones == nil {
			sb.zones = append([]zone(nil), sb.curZones...)
		} else {
			for i, z := range sb.curZones {
				sb.zones[i].widen(z.min, z.max)
			}
		}
	}
	sb.curPage = nil
	sb.curIDs = nil
	sb.curZones = nil
	return nil
}

// finish encodes the full segment. Returns the segment bytes and the
// header length (everything before the block body).
func (sb *segmentBuilder) finish() (data []byte, headerLen int, err error) {
	if err := sb.flushBlock(); err != nil {
		return nil, 0, err
	}
	if len(sb.ids) == 0 {
		return nil, 0, fmt.Errorf("frozen: empty segment")
	}

	var hdr []byte
	var b8 [8]byte
	putU32 := func(v uint32) {
		binary.LittleEndian.PutUint32(b8[:4], v)
		hdr = append(hdr, b8[:4]...)
	}
	putU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b8[:], v)
		hdr = append(hdr, b8[:]...)
	}
	putU32(segmentMagic)
	putU32(segmentVersion)
	putU32(uint32(sb.level))
	var flags byte
	if sb.flat {
		flags |= segFlagFlat
	}
	hdr = append(hdr, flags)
	putU32(uint32(len(sb.ids)))
	putU32(uint32(len(sb.blocks)))
	for _, b := range sb.blocks {
		putU64(uint64(b.firstRID))
		putU64(uint64(b.lastRID))
		putU32(b.numRows)
		putU32(b.rawLen)
		putU32(b.compOff)
		putU32(b.compLen)
	}
	if sb.flat {
		hdr = append(hdr, 0, 0) // no bloom, no zones
	} else {
		hdr = append(hdr, 1)
		bl := newBloom(len(sb.ids))
		for _, id := range sb.ids {
			bl.add(uint64(id))
		}
		hdr = bl.encode(hdr)
		hdr = append(hdr, 1)
		binary.LittleEndian.PutUint16(b8[:2], uint16(len(sb.zones)))
		hdr = append(hdr, b8[:2]...)
		for _, z := range sb.zones {
			binary.LittleEndian.PutUint16(b8[:2], z.col)
			hdr = append(hdr, b8[:2]...)
			hdr = append(hdr, byte(z.kind))
			putU64(z.min)
			putU64(z.max)
		}
		for _, z := range sb.blockZ {
			putU64(z.min)
			putU64(z.max)
		}
	}
	putU32(crc32.ChecksumIEEE(hdr))
	headerLen = len(hdr)
	return append(hdr, sb.body.Bytes()...), headerLen, nil
}

// decodeSegmentHeader parses a segment header (hdr must be exactly the
// header bytes, CRC trailer included) and checks its shape: block rid
// ranges ordered and disjoint, block row counts summing to the segment's,
// and every zone well formed, block zones inside their segment zone.
func decodeSegmentHeader(hdr []byte) (*segment, error) {
	if len(hdr) < 4 {
		return nil, errTruncated("header")
	}
	if got := crc32.ChecksumIEEE(hdr[:len(hdr)-4]); got != binary.LittleEndian.Uint32(hdr[len(hdr)-4:]) {
		return nil, fmt.Errorf("frozen: segment header CRC mismatch")
	}
	buf := hdr[:len(hdr)-4]
	need := func(n int) error {
		if len(buf) < n {
			return errTruncated("header field")
		}
		return nil
	}
	u32 := func() uint32 {
		v := binary.LittleEndian.Uint32(buf[:4])
		buf = buf[4:]
		return v
	}
	u64 := func() uint64 {
		v := binary.LittleEndian.Uint64(buf[:8])
		buf = buf[8:]
		return v
	}
	if err := need(4 + 4 + 4 + 1 + 4 + 4); err != nil {
		return nil, err
	}
	if u32() != segmentMagic {
		return nil, fmt.Errorf("frozen: bad segment magic")
	}
	version := u32()
	if version != segmentVersion && version != segmentVersionV1 {
		return nil, fmt.Errorf("frozen: unsupported segment version %d", version)
	}
	g := &segment{deleted: make(map[rel.RowID]bool)}
	g.level = int(u32())
	flags := buf[0]
	buf = buf[1:]
	g.flat = flags&segFlagFlat != 0
	g.numRows = int(u32())
	nb := int(u32())
	if nb <= 0 || nb > 1<<20 {
		return nil, fmt.Errorf("frozen: bad segment block count %d", nb)
	}
	if err := need(nb * 32); err != nil {
		return nil, err
	}
	g.blocks = make([]segBlock, nb)
	rows := 0
	for i := range g.blocks {
		b := &g.blocks[i]
		b.firstRID = rel.RowID(u64())
		b.lastRID = rel.RowID(u64())
		b.numRows = u32()
		b.rawLen = u32()
		b.compOff = u32()
		b.compLen = u32()
		if b.firstRID > b.lastRID || (i > 0 && b.firstRID <= g.blocks[i-1].lastRID) {
			return nil, fmt.Errorf("frozen: block %d rid range out of order", i)
		}
		if b.numRows == 0 || uint64(b.numRows)-1 > uint64(b.lastRID-b.firstRID) {
			return nil, fmt.Errorf("frozen: block %d holds %d rows in rid range [%d, %d]", i, b.numRows, b.firstRID, b.lastRID)
		}
		rows += int(b.numRows)
	}
	if rows != g.numRows {
		return nil, fmt.Errorf("frozen: blocks hold %d rows, header says %d", rows, g.numRows)
	}
	g.firstRID = g.blocks[0].firstRID
	g.lastRID = g.blocks[nb-1].lastRID
	if err := need(1); err != nil {
		return nil, err
	}
	hasBloom := buf[0] == 1
	buf = buf[1:]
	if hasBloom {
		var err error
		g.filter, buf, err = decodeBloom(buf)
		if err != nil {
			return nil, err
		}
	}
	if err := need(1); err != nil {
		return nil, err
	}
	hasZones := buf[0] == 1
	buf = buf[1:]
	if hasZones {
		if err := need(2); err != nil {
			return nil, err
		}
		nz := int(binary.LittleEndian.Uint16(buf[:2]))
		buf = buf[2:]
		if err := need(nz * 19); err != nil {
			return nil, err
		}
		g.zones = make([]zone, nz)
		for i := range g.zones {
			z := &g.zones[i]
			z.col = binary.LittleEndian.Uint16(buf[:2])
			buf = buf[2:]
			z.kind = rel.Type(buf[0])
			buf = buf[1:]
			z.min = u64()
			z.max = u64()
			if !z.wellFormed() {
				return nil, fmt.Errorf("frozen: zone map for col %d is malformed", z.col)
			}
		}
		if version == segmentVersion && nz > 0 {
			if err := need(nb * nz * 16); err != nil {
				return nil, err
			}
			g.blockZ = make([]zone, nb*nz)
			for i := range g.blockZ {
				z := &g.blockZ[i]
				seg := g.zones[i%nz]
				*z = zone{col: seg.col, kind: seg.kind, min: u64(), max: u64()}
				if !z.wellFormed() || !seg.covers(*z) {
					return nil, fmt.Errorf("frozen: block %d zone map for col %d is malformed or outside its segment zone", i/nz, z.col)
				}
			}
		}
		if version == segmentVersionV1 {
			for i := range g.zones {
				if g.zones[i].kind == rel.TFloat64 {
					g.zones[i].min, g.zones[i].max = nanBits, nanBits
				}
			}
		}
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("frozen: %d trailing header bytes", len(buf))
	}
	g.reads = make([]atomic.Uint32, nb)
	return g, nil
}

// inflater is a pooled DEFLATE reader with its source, so a block read
// allocates only the raw buffer it keeps.
type inflater struct {
	src bytes.Reader
	fr  io.ReadCloser
}

var inflaters = sync.Pool{New: func() any {
	in := new(inflater)
	in.fr = flate.NewReader(&in.src)
	return in
}}

// maxInflateRatio bounds how far a DEFLATE stream can expand (the format
// tops out near 1032:1), so a damaged directory entry cannot make a read
// allocate far more than its compressed bytes could ever produce.
const maxInflateRatio = 1032

// inflateBlock decompresses one block into a fresh buffer of exactly
// rawLen bytes, and fails unless the stream ends exactly there. The
// buffer is never pooled or reused: pages decoded from it alias it.
func inflateBlock(comp []byte, rawLen uint32) ([]byte, error) {
	if uint64(rawLen) > maxInflateRatio*uint64(len(comp))+maxInflateRatio {
		return nil, fmt.Errorf("frozen: block raw length %d impossible for %d compressed bytes", rawLen, len(comp))
	}
	in := inflaters.Get().(*inflater)
	defer func() {
		in.src.Reset(nil) // do not pin comp while pooled
		inflaters.Put(in)
	}()
	in.src.Reset(comp)
	if err := in.fr.(flate.Resetter).Reset(&in.src, nil); err != nil {
		return nil, fmt.Errorf("frozen: decompress block: %w", err)
	}
	raw := make([]byte, rawLen)
	if _, err := io.ReadFull(in.fr, raw); err != nil {
		return nil, fmt.Errorf("frozen: decompress block (want %d raw bytes): %w", rawLen, err)
	}
	var extra [1]byte
	if _, err := io.ReadAtLeast(in.fr, extra[:], 1); err != io.EOF {
		if err == nil {
			return nil, fmt.Errorf("frozen: block inflates past its raw length %d", rawLen)
		}
		return nil, fmt.Errorf("frozen: decompress block: %w", err)
	}
	return raw, nil
}

// decodeBlock splits a raw block into its row ids and, given a schema, a
// read-only page aliasing raw.
func decodeBlock(schema *rel.Schema, raw []byte) ([]rel.RowID, *pax.Page, error) {
	if len(raw) < 4 {
		return nil, nil, errTruncated("block row count")
	}
	n := int(binary.LittleEndian.Uint32(raw[:4]))
	off := 4
	if len(raw)-off < 8*n {
		return nil, nil, errTruncated("block ids")
	}
	ids := make([]rel.RowID, n)
	for i := range ids {
		ids[i] = rel.RowID(binary.LittleEndian.Uint64(raw[off:]))
		off += 8
	}
	if schema == nil {
		return ids, nil, nil
	}
	page, err := pax.DeserializeShared(schema, raw[off:])
	if err != nil {
		return nil, nil, err
	}
	if page.Len() != n {
		return nil, nil, fmt.Errorf("frozen: block pax rows %d, ids %d", page.Len(), n)
	}
	return ids, page, nil
}

// decompressBlock expands one compressed block into (ids, page).
func decompressBlock(schema *rel.Schema, comp []byte, rawLen uint32) ([]rel.RowID, *pax.Page, error) {
	raw, err := inflateBlock(comp, rawLen)
	if err != nil {
		return nil, nil, err
	}
	return decodeBlock(schema, raw)
}

// VerifySegmentBytes checks a raw segment image against its manifest
// record without needing the table schema: whole-segment CRC, header CRC
// and shape (see decodeSegmentHeader), per-block decompression, row-id
// ordering, bloom membership of every stored row id, and that every
// fixed-width value lies inside its block's zone (the segment's, for
// version 1) — a zone that misses a value would silently drop that row
// from pruned scans. Used by backup verification.
func VerifySegmentBytes(data []byte, m SegmentMeta) error {
	if int64(len(data)) != int64(m.Ref.Len) {
		return fmt.Errorf("frozen: segment length %d, manifest says %d", len(data), m.Ref.Len)
	}
	if crc := crc32.ChecksumIEEE(data); crc != m.CRC {
		return fmt.Errorf("frozen: segment CRC %#x, manifest says %#x", crc, m.CRC)
	}
	if m.HeaderLen <= 0 || m.HeaderLen > len(data) {
		return fmt.Errorf("frozen: bad manifest header length %d", m.HeaderLen)
	}
	g, err := decodeSegmentHeader(data[:m.HeaderLen])
	if err != nil {
		return err
	}
	if g.firstRID != m.FirstRID || g.lastRID != m.LastRID || g.numRows != m.NumRows ||
		g.level != m.Level || g.flat != m.Flat {
		return fmt.Errorf("frozen: segment header disagrees with manifest record")
	}
	body := data[m.HeaderLen:]
	for i, b := range g.blocks {
		if int64(b.compOff)+int64(b.compLen) > int64(len(body)) {
			return fmt.Errorf("frozen: block %d overruns segment body", i)
		}
		raw, err := inflateBlock(body[b.compOff:b.compOff+b.compLen], b.rawLen)
		if err != nil {
			return fmt.Errorf("frozen: block %d: %w", i, err)
		}
		ids, _, err := decodeBlock(nil, raw)
		if err != nil {
			return fmt.Errorf("frozen: block %d: %w", i, err)
		}
		if len(ids) != int(b.numRows) {
			return fmt.Errorf("frozen: block %d has %d rows, directory says %d", i, len(ids), b.numRows)
		}
		for j, id := range ids {
			if id < b.firstRID || id > b.lastRID || (j > 0 && id <= ids[j-1]) {
				return fmt.Errorf("frozen: block %d row id %d out of order/range", i, id)
			}
			if g.filter != nil && !g.filter.mayContain(uint64(id)) {
				return fmt.Errorf("frozen: bloom filter missing row id %d", id)
			}
		}
		zones := g.blockZones(i)
		if zones == nil {
			zones = g.zones
		}
		if len(zones) == 0 {
			continue
		}
		// segmentBuilder keeps one zone per fixed-width column in schema
		// order, which is the order of the page's fixed minipages.
		n, strips, err := pax.FixedStrips(raw[4+8*len(ids):], len(zones))
		if err != nil {
			return fmt.Errorf("frozen: block %d: %w", i, err)
		}
		if n != len(ids) {
			return fmt.Errorf("frozen: block %d pax rows %d, ids %d", i, n, len(ids))
		}
		for k, z := range zones {
			for j := 0; j < n; j++ {
				v := binary.LittleEndian.Uint64(strips[k][j*8:])
				if !z.covers(zone{kind: z.kind, min: v, max: v}) {
					return fmt.Errorf("frozen: block %d row %d lies outside its zone map for col %d", i, ids[j], z.col)
				}
			}
		}
	}
	return nil
}
