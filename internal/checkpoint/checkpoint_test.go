package checkpoint

import (
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
)

type payload struct {
	Name  string
	Ticks int64
}

func TestSealOpenRoundTrip(t *testing.T) {
	in := payload{Name: "steady", Ticks: 250000}
	data, err := Seal(KindWorld, in)
	if err != nil {
		t.Fatal(err)
	}
	kind, body, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	if kind != KindWorld {
		t.Fatalf("kind = %q, want %q", kind, KindWorld)
	}
	var out payload
	if err := Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}

	// Sealing the same body twice, by value or by pointer, yields
	// identical bytes: the envelope adds no nondeterminism of its own.
	data2, err := Seal(KindWorld, &in)
	if err != nil {
		t.Fatal(err)
	}
	if string(data2) != string(data) {
		t.Fatal("sealing the same body twice produced different bytes")
	}
}

// TestOpenReturnsBodyInPlace pins that Open hands back a view of its
// input rather than a copy: for a large checkpoint the copy is the
// allocation the binary format exists to avoid.
func TestOpenReturnsBodyInPlace(t *testing.T) {
	data, err := Seal(KindWorld, payload{Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	_, body, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	if &body[len(body)-1] != &data[len(data)-1] {
		t.Fatal("Open copied the body instead of returning a sub-slice of its input")
	}
}

func TestSealRejectsUnknownKind(t *testing.T) {
	if _, err := Seal("experiment", payload{}); err == nil {
		t.Fatal("Seal accepted an unknown kind")
	}
}

func TestOpenRejectsDefects(t *testing.T) {
	good, err := Seal(KindScenario, payload{Name: "quickstart", Ticks: 7})
	if err != nil {
		t.Fatal(err)
	}
	_, body, err := Open(good)
	if err != nil {
		t.Fatal(err)
	}
	header := good[:len(good)-len(body)]
	bitFlip := append([]byte{}, good...)
	bitFlip[len(bitFlip)-1] ^= 0x01
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"not a checkpoint", []byte("not a checkpoint"), "bad magic"},
		{"empty input", nil, "bad magic"},
		{"trailing data", append(append([]byte{}, good...), 0, 0), "digest mismatch"},
		{"truncated", good[:len(good)-3], "digest mismatch"},
		{"truncated header", good[:len(Magic)+4], "truncated envelope"},
		{"bit flip in body", bitFlip, "digest mismatch"},
		{"wrong magic", flip(t, good, []byte("replend-checkpoint/v2"), []byte("replend-checkpoint/v3")), "bad magic"},
		{"unknown kind", flip(t, good, []byte("scenario"), []byte("scenari0")), "unknown kind"},
		{"missing body", header, "empty body"},
		{"retired JSON format", []byte(`{"magic":"replend-checkpoint/v1","kind":"world","sha256":"","body":{}}`), "retired replend-checkpoint/v1"},
	}
	for _, tc := range cases {
		_, _, err := Open(tc.data)
		if err == nil {
			t.Errorf("%s: Open accepted the defect", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestUnmarshalIsStrict(t *testing.T) {
	body := bodyOf(t, payload{Name: "x", Ticks: 1})
	var dst payload
	if err := Unmarshal(append(append([]byte{}, body...), 0), &dst); err == nil || !strings.Contains(err.Error(), "trailing data") {
		t.Fatalf("Unmarshal accepted trailing data (err=%v)", err)
	}
	if err := Unmarshal(body[:len(body)-1], &dst); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("Unmarshal accepted a truncated body (err=%v)", err)
	}
	if err := Unmarshal(nil, &dst); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("Unmarshal accepted an empty body (err=%v)", err)
	}
	if err := Unmarshal(body, dst); err == nil {
		t.Fatal("Unmarshal accepted a non-pointer destination")
	}
}

// Types whose bodies the codec cases below forge byte by byte.
type (
	flags struct {
		On  bool
		Ptr *int64
	}
	narrow struct {
		N int32
		U uint8
	}
	floats struct {
		F float64
		G float64
	}
	list struct {
		Items []int64
	}
	// renamed has flags' shape under other field names.
	renamed struct {
		Enabled bool
		Ptr     *int64
	}
)

func TestCodecRejectsMalformedBodies(t *testing.T) {
	fp := func(v any) []byte { return bodyOf(t, v)[:fingerprintLen] }
	forge := func(v any, tail ...byte) []byte { return append(fp(v), tail...) }
	varint := func(x int64) []byte { return binary.AppendVarint(nil, x) }
	uvarint := func(x uint64) []byte { return binary.AppendUvarint(nil, x) }
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	nan := binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN()))
	inf := binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Inf(1)))

	cases := []struct {
		name string
		body []byte
		dst  any
		want string
	}{
		{"fingerprint mismatch", bodyOf(t, flags{}), &narrow{}, "fingerprint mismatch"},
		{"field renamed", bodyOf(t, flags{}), &renamed{}, "fingerprint mismatch"},
		{"bool byte 2", forge(flags{}, 2, 0), &flags{}, "flag byte is 2"},
		{"presence byte 2", forge(flags{}, 0, 2), &flags{}, "flag byte is 2"},
		{"int overflows its field", forge(narrow{}, cat(varint(1<<40), uvarint(0))...), &narrow{}, "overflows int32"},
		{"uint overflows its field", forge(narrow{}, cat(varint(0), uvarint(300))...), &narrow{}, "overflows uint8"},
		{"varint overflows 64 bits", forge(narrow{}, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f), &narrow{}, "overflows 64 bits"},
		{"NaN float", forge(floats{}, cat(nan, make([]byte, 8))...), &floats{}, "non-finite"},
		{"Inf float", forge(floats{}, cat(make([]byte, 8), inf)...), &floats{}, "non-finite"},
		{"oversized length prefix", forge(list{}, uvarint(1<<40)...), &list{}, "length prefix"},
		{"length prefix past the end", forge(list{}, cat(uvarint(3), []byte{2, 4})...), &list{}, "length prefix"},
		{"truncated value", forge(floats{}, 1, 2, 3), &floats{}, "truncated"},
	}
	for _, tc := range cases {
		err := Unmarshal(tc.body, tc.dst)
		if err == nil {
			t.Errorf("%s: Unmarshal accepted the body", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestSealRefusesUnencodableValues(t *testing.T) {
	type withMap struct{ M map[string]int }
	type withInterface struct{ X any }
	type withUnexported struct {
		Shown  int
		hidden int
	}
	type withFunc struct{ F func() }
	cases := []struct {
		name string
		body any
		want string
	}{
		{"NaN float", floats{F: math.NaN()}, "floats.F: non-finite"},
		{"-Inf float", floats{G: math.Inf(-1)}, "floats.G: non-finite"},
		{"NaN deep in a slice", []floats{{}, {F: math.Inf(1)}}, "[1].F: non-finite"},
		{"map", withMap{}, "no checkpoint encoding"},
		{"interface", withInterface{}, "no checkpoint encoding"},
		{"unexported field", withUnexported{}, "unexported"},
		{"func", withFunc{}, "no checkpoint encoding"},
		{"float32", struct{ F float32 }{}, "no checkpoint encoding"},
		{"nil pointer body", (*payload)(nil), "nil"},
	}
	for _, tc := range cases {
		_, err := Seal(KindWorld, tc.body)
		if err == nil {
			t.Errorf("%s: Seal accepted the value", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// A refused type stays refused, and on decode too.
	if err := Unmarshal([]byte("whatever"), &withMap{}); err == nil || !strings.Contains(err.Error(), "no checkpoint encoding") {
		t.Fatalf("Unmarshal into a map-bearing type: err=%v", err)
	}
}

type (
	ident   [20]byte
	rawJSON []byte
	tree    struct {
		Label string
		Kids  []tree
		Next  *tree
	}
	everything struct {
		B      bool
		I      int
		I8     int8
		I16    int16
		I32    int32
		I64    int64
		U      uint
		U8     uint8
		U16    uint16
		U32    uint32
		U64    uint64
		F64    float64
		S      string
		ID     ident
		IDs    []ident
		State  [4]uint64
		Bytes  []byte
		Raw    rawJSON
		Ptr    *ident
		NilPtr *narrow
		Nested []flags
		Empty  []int64
		Tree   tree
	}
)

// TestRoundTripEveryKind pushes one value of every supported kind
// through the codec, extremes included, and a recursive type.
func TestRoundTripEveryKind(t *testing.T) {
	seven := int64(7)
	in := everything{
		B: true, I: math.MinInt64, I8: math.MinInt8, I16: math.MaxInt16, I32: math.MinInt32, I64: math.MaxInt64,
		U: math.MaxUint64, U8: math.MaxUint8, U16: math.MaxUint16, U32: math.MaxUint32, U64: math.MaxUint64,
		F64: math.SmallestNonzeroFloat64, S: "héllo\x00",
		ID:     ident{1, 2, 3, 19: 20},
		IDs:    []ident{{}, {0xff}},
		State:  [4]uint64{0, 1, math.MaxUint64, 1 << 63},
		Bytes:  []byte{0, 1, 2},
		Raw:    rawJSON(`{"a":1}`),
		Ptr:    &ident{9},
		Nested: []flags{{On: true}, {Ptr: &seven}},
		Tree:   tree{Label: "root", Kids: []tree{{Label: "a"}, {Label: "b", Next: &tree{Label: "c"}}}},
	}
	var out everything
	if err := Unmarshal(bodyOf(t, in), &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", out, in)
	}
}

// TestDecodeAllocationBound decodes a body of fifty thousand one-element
// slices, the body that holds the most slices for its length. Each slice
// takes two body bytes and 32 bytes of memory (its header and its one
// element), so the decoder may allocate 16 bytes per body byte, plus the
// unused tail of one chunk for each of the two element types and 4 KiB
// for its own bookkeeping: decoder.length's bound on a length prefix
// still caps what a hostile body can make it allocate. It must do so in
// a few chunks, not one object per slice.
func TestDecodeAllocationBound(t *testing.T) {
	type ones struct{ Lists [][]int64 }
	in := ones{Lists: make([][]int64, 50_000)}
	for i := range in.Lists {
		in.Lists[i] = []int64{int64(i % 50)}
	}
	body := bodyOf(t, in)
	var out ones
	if err := Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := Unmarshal(body, &out)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatal("round trip changed the lists")
	}
	bytes, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	if limit := uint64(16*len(body) + 2*chunkBytes + 4<<10); bytes > limit {
		t.Errorf("decoding a %d-byte body allocated %d bytes, want at most %d", len(body), bytes, limit)
	}
	if limit := uint64(16*len(body)/chunkBytes + 8); objects > limit {
		t.Errorf("decoding %d one-element slices made %d objects, want at most %d", len(in.Lists), objects, limit)
	}
}

// TestConcurrentSealOpen seals, opens and decodes from several
// goroutines at once, over types whose plans no other test has built,
// so plan construction and cache reads race under -race. The fleet runs
// units concurrently in one process and leans on this.
func TestConcurrentSealOpen(t *testing.T) {
	type a struct{ X, Y int64 }
	type b struct{ Names []string }
	type c struct{ Inner *a }
	bodies := []any{a{X: 1, Y: -2}, b{Names: []string{"p", "q"}}, c{Inner: &a{X: 3}}}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				in := bodies[(g+i)%len(bodies)]
				data, err := Seal(KindWorld, in)
				if err != nil {
					t.Error(err)
					return
				}
				_, body, err := Open(data)
				if err != nil {
					t.Error(err)
					return
				}
				var out any
				switch in.(type) {
				case a:
					out = new(a)
				case b:
					out = new(b)
				case c:
					out = new(c)
				}
				if err := Unmarshal(body, out); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// bodyOf seals v and returns the body of the sealed file.
func bodyOf(t *testing.T, v any) []byte {
	t.Helper()
	data, err := Seal(KindWorld, v)
	if err != nil {
		t.Fatal(err)
	}
	_, body, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// flip replaces one occurrence of old with new, failing loudly if the
// pattern is absent so the corruption cases cannot silently test nothing.
func flip(t *testing.T, data, old, new []byte) []byte {
	t.Helper()
	s := strings.Replace(string(data), string(old), string(new), 1)
	if s == string(data) {
		t.Fatalf("flip: pattern not found: %s", old)
	}
	return []byte(s)
}
