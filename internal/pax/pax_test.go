package pax

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"phoebedb/internal/rel"
)

func testSchema() *rel.Schema {
	return rel.NewSchema(
		rel.Column{Name: "id", Type: rel.TInt64},
		rel.Column{Name: "name", Type: rel.TString},
		rel.Column{Name: "bal", Type: rel.TFloat64},
	)
}

func mkRow(i int) rel.Row {
	return rel.Row{rel.Int(int64(i)), rel.Str(string(rune('a' + i%26))), rel.Float(float64(i) / 2)}
}

func TestAppendAndRead(t *testing.T) {
	p := NewPage(testSchema(), 16)
	for i := 0; i < 10; i++ {
		slot, err := p.Append(mkRow(i))
		if err != nil {
			t.Fatal(err)
		}
		if slot != i {
			t.Fatalf("slot = %d, want %d", slot, i)
		}
	}
	if p.Len() != 10 {
		t.Fatalf("Len = %d", p.Len())
	}
	for i := 0; i < 10; i++ {
		if !p.Row(i).Equal(mkRow(i)) {
			t.Fatalf("row %d = %v, want %v", i, p.Row(i), mkRow(i))
		}
	}
}

func TestInsertShifts(t *testing.T) {
	p := NewPage(testSchema(), 8)
	for i := 0; i < 4; i++ {
		p.Append(mkRow(i))
	}
	if err := p.Insert(1, mkRow(99)); err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 99, 1, 2, 3}
	for i, w := range want {
		if p.Col(i, 0).I != w {
			t.Fatalf("slot %d id = %d, want %d", i, p.Col(i, 0).I, w)
		}
	}
}

func TestInsertErrors(t *testing.T) {
	p := NewPage(testSchema(), 2)
	p.Append(mkRow(0))
	if err := p.Insert(5, mkRow(1)); err == nil {
		t.Fatal("out-of-range insert accepted")
	}
	if err := p.Insert(0, rel.Row{rel.Int(1)}); err == nil {
		t.Fatal("non-conforming row accepted")
	}
	p.Append(mkRow(1))
	if _, err := p.Append(mkRow(2)); err == nil {
		t.Fatal("append to full page accepted")
	}
	if !p.Full() {
		t.Fatal("Full() false on full page")
	}
}

func TestDeleteShifts(t *testing.T) {
	p := NewPage(testSchema(), 8)
	for i := 0; i < 5; i++ {
		p.Append(mkRow(i))
	}
	if err := p.Delete(1); err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 2, 3, 4}
	if p.Len() != len(want) {
		t.Fatalf("Len = %d", p.Len())
	}
	for i, w := range want {
		if p.Col(i, 0).I != w {
			t.Fatalf("slot %d id = %d, want %d", i, p.Col(i, 0).I, w)
		}
	}
	if err := p.Delete(10); err == nil {
		t.Fatal("out-of-range delete accepted")
	}
}

func TestInPlaceUpdate(t *testing.T) {
	p := NewPage(testSchema(), 4)
	p.Append(mkRow(0))
	p.SetCol(0, 0, rel.Int(42))
	p.SetCol(0, 1, rel.Str("updated-longer-string"))
	p.SetCol(0, 2, rel.Float(-1.5))
	got := p.Row(0)
	want := rel.Row{rel.Int(42), rel.Str("updated-longer-string"), rel.Float(-1.5)}
	if !got.Equal(want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestSetRow(t *testing.T) {
	p := NewPage(testSchema(), 4)
	p.Append(mkRow(0))
	if err := p.SetRow(0, mkRow(7)); err != nil {
		t.Fatal(err)
	}
	if !p.Row(0).Equal(mkRow(7)) {
		t.Fatal("SetRow did not overwrite")
	}
	if err := p.SetRow(3, mkRow(1)); err == nil {
		t.Fatal("out-of-range SetRow accepted")
	}
}

func TestScanColFixedAndVar(t *testing.T) {
	p := NewPage(testSchema(), 8)
	for i := 0; i < 6; i++ {
		p.Append(mkRow(i))
	}
	var ids []int64
	p.ScanCol(0, func(slot int, v rel.Value) { ids = append(ids, v.I) })
	if !reflect.DeepEqual(ids, []int64{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("fixed scan = %v", ids)
	}
	var names []string
	p.ScanCol(1, func(slot int, v rel.Value) { names = append(names, v.S) })
	if len(names) != 6 || names[0] != "a" || names[5] != "f" {
		t.Fatalf("var scan = %v", names)
	}
	var sum float64
	p.ScanCol(2, func(slot int, v rel.Value) { sum += v.F })
	if sum != 0+0.5+1+1.5+2+2.5 {
		t.Fatalf("float scan sum = %g", sum)
	}
}

func TestSplitInto(t *testing.T) {
	p := NewPage(testSchema(), 8)
	for i := 0; i < 7; i++ {
		p.Append(mkRow(i))
	}
	q := NewPage(testSchema(), 8)
	moved := p.SplitInto(q)
	if moved != 4 || p.Len() != 3 || q.Len() != 4 {
		t.Fatalf("split: moved=%d left=%d right=%d", moved, p.Len(), q.Len())
	}
	for i := 0; i < 3; i++ {
		if !p.Row(i).Equal(mkRow(i)) {
			t.Fatalf("left row %d wrong", i)
		}
	}
	for i := 0; i < 4; i++ {
		if !q.Row(i).Equal(mkRow(i + 3)) {
			t.Fatalf("right row %d wrong", i)
		}
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	p := NewPage(testSchema(), 16)
	for i := 0; i < 9; i++ {
		p.Append(mkRow(i))
	}
	img := p.Serialize(nil)
	if len(img) != p.SerializedSize() {
		t.Fatalf("SerializedSize = %d, actual %d", p.SerializedSize(), len(img))
	}
	q, err := Deserialize(testSchema(), 16, img)
	if err != nil {
		t.Fatal(err)
	}
	if q.Len() != 9 {
		t.Fatalf("deserialized Len = %d", q.Len())
	}
	for i := 0; i < 9; i++ {
		if !q.Row(i).Equal(p.Row(i)) {
			t.Fatalf("row %d mismatch after round trip", i)
		}
	}
}

func TestDeserializeErrors(t *testing.T) {
	s := testSchema()
	if _, err := Deserialize(s, 4, []byte{1, 2}); err == nil {
		t.Fatal("truncated image accepted")
	}
	if _, err := Deserialize(s, 4, make([]byte, 16)); err == nil {
		t.Fatal("bad magic accepted")
	}
	p := NewPage(s, 8)
	for i := 0; i < 6; i++ {
		p.Append(mkRow(i))
	}
	img := p.Serialize(nil)
	if _, err := Deserialize(s, 2, img); err == nil {
		t.Fatal("capacity overflow accepted")
	}
	if _, err := Deserialize(s, 8, img[:len(img)-3]); err == nil {
		t.Fatal("truncated var value accepted")
	}
}

// DeserializeShared decodes the same rows as Deserialize, but its values
// alias the image, and the page it returns is full.
func TestDeserializeShared(t *testing.T) {
	s := testSchema()
	p := NewPage(s, 16)
	for i := 0; i < 9; i++ {
		p.Append(mkRow(i))
	}
	img := p.Serialize(nil)
	q, err := DeserializeShared(s, img)
	if err != nil {
		t.Fatal(err)
	}
	if q.Len() != 9 || q.Cap() != 9 || !q.Full() {
		t.Fatalf("shared page Len=%d Cap=%d", q.Len(), q.Cap())
	}
	for i := 0; i < 9; i++ {
		if !q.Row(i).Equal(mkRow(i)) {
			t.Fatalf("row %d = %v, want %v", i, q.Row(i), mkRow(i))
		}
	}
	if _, err := q.Append(mkRow(9)); err == nil {
		t.Fatal("append to a shared page accepted")
	}
	// Values are views of img, not copies: an edit of the image shows.
	name := q.Col(3, 1).S
	img[len(img)-1] = 'Z' // last byte of the last name
	if got := q.Col(8, 1).S; got != "Z" {
		t.Fatalf("shared value = %q after editing the image", got)
	}
	if name != "d" {
		t.Fatalf("untouched value = %q", name)
	}

	empty, err := DeserializeShared(s, NewPage(s, 4).Serialize(nil))
	if err != nil || empty.Len() != 0 {
		t.Fatalf("empty page = %v, %v", empty, err)
	}
}

func TestDeserializeSharedErrors(t *testing.T) {
	s := testSchema()
	if _, err := DeserializeShared(s, []byte{1, 2}); err == nil {
		t.Fatal("truncated image accepted")
	}
	if _, err := DeserializeShared(s, make([]byte, 16)); err == nil {
		t.Fatal("bad magic accepted")
	}
	p := NewPage(s, 8)
	for i := 0; i < 6; i++ {
		p.Append(mkRow(i))
	}
	img := p.Serialize(nil)
	for cut := 1; cut < len(img)-8; cut++ {
		if _, err := DeserializeShared(s, img[:len(img)-cut]); err == nil {
			t.Fatalf("image cut by %d bytes accepted", cut)
		}
	}
	// A row count the image cannot hold is refused before any slot table
	// is sized from it.
	huge := append([]byte(nil), img...)
	huge[4], huge[5], huge[6], huge[7] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := DeserializeShared(s, huge); err == nil {
		t.Fatal("oversized row count accepted")
	}
}

func TestFixedStrips(t *testing.T) {
	s := testSchema() // fixed columns: id, bal
	p := NewPage(s, 8)
	for i := 0; i < 5; i++ {
		p.Append(mkRow(i))
	}
	img := p.Serialize(nil)
	n, strips, err := FixedStrips(img, 2)
	if err != nil || n != 5 || len(strips) != 2 {
		t.Fatalf("FixedStrips = %d, %d strips, %v", n, len(strips), err)
	}
	for i := 0; i < n; i++ {
		if got := int64(binary.LittleEndian.Uint64(strips[0][i*8:])); got != int64(i) {
			t.Fatalf("id strip[%d] = %d", i, got)
		}
		if got := math.Float64frombits(binary.LittleEndian.Uint64(strips[1][i*8:])); got != float64(i)/2 {
			t.Fatalf("bal strip[%d] = %v", i, got)
		}
	}
	if _, _, err := FixedStrips(img[:8+5*8+3], 2); err == nil {
		t.Fatal("truncated strip accepted")
	}
}

func TestRoundTripProperty(t *testing.T) {
	s := testSchema()
	f := func(ids []int64, names []string) bool {
		n := len(ids)
		if len(names) < n {
			n = len(names)
		}
		if n > 32 {
			n = 32
		}
		p := NewPage(s, 32)
		rows := make([]rel.Row, n)
		for i := 0; i < n; i++ {
			rows[i] = rel.Row{rel.Int(ids[i]), rel.Str(names[i]), rel.Float(float64(ids[i]))}
			if _, err := p.Append(rows[i]); err != nil {
				return false
			}
		}
		img := p.Serialize(nil)
		q, err := Deserialize(s, 32, img)
		if err != nil {
			return false
		}
		shared, err := DeserializeShared(s, img)
		if err != nil || shared.Len() != n {
			return false
		}
		for i := 0; i < n; i++ {
			if !q.Row(i).Equal(rows[i]) || !shared.Row(i).Equal(rows[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScanColFixed(b *testing.B) {
	p := NewPage(testSchema(), 256)
	for i := 0; i < 256; i++ {
		p.Append(mkRow(i))
	}
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		p.ScanCol(0, func(_ int, v rel.Value) { sink += v.I })
	}
	_ = sink
}

func BenchmarkAppend(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	rows := make([]rel.Row, 256)
	for i := range rows {
		rows[i] = rel.Row{rel.Int(rng.Int63()), rel.Str("some-name"), rel.Float(rng.Float64())}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := NewPage(testSchema(), 256)
		for _, r := range rows {
			p.Append(r)
		}
	}
}
