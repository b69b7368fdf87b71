package checkpoint

// The body codec. A checkpoint body is one Go value encoded positionally,
// after a schema fingerprint that pins its layout: no field names, no
// delimiters, and one encoding per kind.
//
//   - bool: one byte, 0 or 1
//   - signed integers: zig-zag varint; unsigned integers: varint
//   - float64: the IEEE-754 bits, little-endian; NaN and ±Inf are
//     refused on encode and on decode
//   - [N]byte (id.ID among them): the N raw bytes
//   - other arrays: the elements in order
//   - strings and slices: a varint length, then the bytes or elements
//   - pointers: a presence byte (0 nil, 1 set), then the pointee
//   - structs: every field in declaration order
//
// Every other kind — maps, interfaces, channels, functions, float32,
// complex numbers — and unexported struct fields have no encoding. A type
// that reaches one is refused when its plan is built, so no encoding can
// follow map order or skip state the format does not describe.
//
// A plan is built once per Go type and cached; plans are immutable once
// published, so concurrent callers share them freely.
//
// Decoding cuts every slice's elements and every pointer's pointee from
// chunks the decode call owns, one chunk per element type at a time, and
// writes each slice straight into its destination, capped at its length:
// a body of a hundred thousand small records costs a few hundred chunks,
// not a few hundred thousand objects. The cap means an append to one
// decoded slice reallocates instead of writing into the next one's
// elements.

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"sync"
	"unsafe"
)

// fingerprintLen is the width of the schema fingerprint that opens
// every body.
const fingerprintLen = 8

// chunkBytes is the size of the chunks a decode call cuts slices and
// pointees from. A piece longer than a quarter chunk gets an array of its
// own, so moving to a fresh chunk abandons less than a quarter of the old
// one, and a decode call wastes at most that per chunk plus the unused
// tail of one chunk per element type.
const chunkBytes = 16 << 10

// plan encodes and decodes values of one Go type.
type plan struct {
	// id numbers the plan among every plan built, so a decode call keeps
	// its chunks in a slice indexed by the id of their element type.
	id int
	// typ is the Go type the plan handles; chunk is the array type of one
	// chunk of its values, at least one element long.
	typ, chunk reflect.Type
	// min is the fewest bytes any value of the type encodes to. Decoding
	// bounds a length prefix by the remaining bytes divided by it, which
	// caps what hostile input can make the decoder allocate.
	min int
	// fixed is the encoded width when every value has that width and
	// needs no validation (bools, byte arrays and aggregates of them);
	// measuring skips such values. Zero otherwise.
	fixed int
	// measure validates v and returns its encoded size.
	measure func(v reflect.Value) (int, error)
	// encode appends v, which measure has validated, to b.
	encode func(b []byte, v reflect.Value) []byte
	// decode reads one value into the settable v.
	decode func(d *decoder, v reflect.Value) error
}

// schema is a root type's plan with the fingerprint of its layout.
// plans bounds the id of every plan the root reaches.
type schema struct {
	plan        *plan
	fingerprint [fingerprintLen]byte
	plans       int
}

var (
	// buildMu guards plans and built and serializes plan construction;
	// schemas is read without it.
	buildMu sync.Mutex
	plans   = map[reflect.Type]*plan{} // every complete plan
	built   int                        // plans ever started, the next id
	schemas sync.Map                   // root reflect.Type -> *schema
)

// schemaFor returns the cached schema of root type t, building it on
// first use.
func schemaFor(t reflect.Type) (*schema, error) {
	if s, ok := schemas.Load(t); ok {
		return s.(*schema), nil
	}
	buildMu.Lock()
	defer buildMu.Unlock()
	if s, ok := schemas.Load(t); ok {
		return s.(*schema), nil
	}
	b := builder{building: map[reflect.Type]*plan{}, open: map[reflect.Type]bool{}}
	p, err := b.build(t)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	// Publish only complete plans: a failed build leaves no half-built
	// plan behind for a later caller to find.
	for bt, bp := range b.building {
		plans[bt] = bp
	}
	s := &schema{plan: p, fingerprint: fingerprint(t), plans: built}
	schemas.Store(t, s)
	return s, nil
}

// builder constructs the plans of one root type. building holds every
// plan it has started, so a recursive type refers to its own plan; open
// marks those not yet finished.
type builder struct {
	building map[reflect.Type]*plan
	open     map[reflect.Type]bool
}

func (b *builder) build(t reflect.Type) (*plan, error) {
	if p, ok := plans[t]; ok {
		return p, nil
	}
	if p, ok := b.building[t]; ok {
		return p, nil
	}
	p := &plan{id: built, typ: t, chunk: reflect.ArrayOf(max(1, chunkBytes/max(1, int(t.Size()))), t)}
	built++
	b.building[t] = p
	b.open[t] = true
	defer delete(b.open, t)
	switch t.Kind() {
	case reflect.Bool:
		p.min, p.fixed = 1, 1
		p.encode = func(b []byte, v reflect.Value) []byte {
			if v.Bool() {
				return append(b, 1)
			}
			return append(b, 0)
		}
		p.decode = func(d *decoder, v reflect.Value) error {
			set, err := d.flag()
			v.SetBool(set)
			return err
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		p.min = 1
		p.measure = func(v reflect.Value) (int, error) { return varintLen(v.Int()), nil }
		p.encode = func(b []byte, v reflect.Value) []byte { return binary.AppendVarint(b, v.Int()) }
		p.decode = func(d *decoder, v reflect.Value) error {
			x, err := d.varint()
			if err != nil {
				return err
			}
			if v.OverflowInt(x) {
				return fmt.Errorf("%d overflows %s", x, v.Type())
			}
			v.SetInt(x)
			return nil
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		p.min = 1
		p.measure = func(v reflect.Value) (int, error) { return uvarintLen(v.Uint()), nil }
		p.encode = func(b []byte, v reflect.Value) []byte { return binary.AppendUvarint(b, v.Uint()) }
		p.decode = func(d *decoder, v reflect.Value) error {
			x, err := d.uvarint()
			if err != nil {
				return err
			}
			if v.OverflowUint(x) {
				return fmt.Errorf("%d overflows %s", x, v.Type())
			}
			v.SetUint(x)
			return nil
		}
	case reflect.Float64:
		p.min = 8
		p.measure = func(v reflect.Value) (int, error) { return 8, finite(v.Float()) }
		p.encode = func(b []byte, v reflect.Value) []byte {
			return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
		}
		p.decode = func(d *decoder, v reflect.Value) error {
			raw, err := d.take(8)
			if err != nil {
				return err
			}
			f := math.Float64frombits(binary.LittleEndian.Uint64(raw))
			v.SetFloat(f)
			return finite(f)
		}
	case reflect.String:
		p.min = 1
		p.measure = measureBytes
		p.encode = func(b []byte, v reflect.Value) []byte {
			return append(binary.AppendUvarint(b, uint64(v.Len())), v.String()...)
		}
		p.decode = func(d *decoder, v reflect.Value) error {
			raw, err := d.lengthPrefixed(1)
			v.SetString(string(raw))
			return err
		}
	case reflect.Array:
		if t.Elem().Kind() == reflect.Uint8 {
			n := t.Len()
			p.min, p.fixed = n, n
			p.encode = func(b []byte, v reflect.Value) []byte { return append(b, v.Bytes()...) }
			p.decode = func(d *decoder, v reflect.Value) error {
				raw, err := d.take(n)
				copy(v.Bytes(), raw)
				return err
			}
			break
		}
		elem, err := b.build(t.Elem())
		if err != nil {
			return nil, err
		}
		b.array(p, t.Len(), elem)
	case reflect.Slice:
		elem, err := b.build(t.Elem())
		if err != nil {
			return nil, err
		}
		if t.Elem().Kind() == reflect.Uint8 {
			p.min = 1
			p.measure = measureBytes
			p.encode = func(b []byte, v reflect.Value) []byte {
				return append(binary.AppendUvarint(b, uint64(v.Len())), v.Bytes()...)
			}
			p.decode = func(d *decoder, v reflect.Value) error {
				raw, err := d.lengthPrefixed(1)
				if err != nil || len(raw) == 0 {
					v.SetZero()
					return err
				}
				d.setPiece(v, elem, len(raw))
				copy(v.Bytes(), raw)
				return nil
			}
			break
		}
		if err := b.slice(p, t, elem); err != nil {
			return nil, err
		}
	case reflect.Pointer:
		elem, err := b.build(t.Elem())
		if err != nil {
			return nil, err
		}
		b.pointer(p, t, elem)
	case reflect.Struct:
		if err := b.structure(p, t); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("%s has no checkpoint encoding (kind %s)", t, t.Kind())
	}
	if p.measure == nil {
		width := p.fixed
		p.measure = func(reflect.Value) (int, error) { return width, nil }
	}
	return p, nil
}

func (b *builder) array(p *plan, n int, elem *plan) {
	p.min = n * elem.min
	if elem.fixed > 0 {
		p.fixed = n * elem.fixed
	}
	p.measure = func(v reflect.Value) (int, error) { return measureElems(elem, v, n) }
	p.encode = func(b []byte, v reflect.Value) []byte { return encodeElems(b, elem, v, n) }
	p.decode = func(d *decoder, v reflect.Value) error { return decodeElems(d, elem, v, n) }
}

func (b *builder) slice(p *plan, t reflect.Type, elem *plan) error {
	// An open element type is recursive, and so reaches this slice: it
	// is at least one byte wide.
	if !b.open[t.Elem()] && elem.min == 0 {
		return fmt.Errorf("%s: element type %s has zero width", t, t.Elem())
	}
	p.min = 1
	p.measure = func(v reflect.Value) (int, error) {
		size, err := measureElems(elem, v, v.Len())
		return uvarintLen(uint64(v.Len())) + size, err
	}
	p.encode = func(b []byte, v reflect.Value) []byte {
		return encodeElems(binary.AppendUvarint(b, uint64(v.Len())), elem, v, v.Len())
	}
	p.decode = func(d *decoder, v reflect.Value) error {
		n, err := d.length(elem.min)
		if err != nil || n == 0 {
			v.SetZero()
			return err
		}
		d.setPiece(v, elem, n)
		return decodeElems(d, elem, v, n)
	}
	return nil
}

// measureElems, encodeElems and decodeElems handle the first n elements
// of an array or slice.
func measureElems(elem *plan, v reflect.Value, n int) (int, error) {
	if elem.fixed > 0 {
		return n * elem.fixed, nil
	}
	size := 0
	for i := 0; i < n; i++ {
		k, err := elem.measure(v.Index(i))
		if err != nil {
			return 0, at(fmt.Sprintf("[%d]", i), err)
		}
		size += k
	}
	return size, nil
}

func encodeElems(b []byte, elem *plan, v reflect.Value, n int) []byte {
	for i := 0; i < n; i++ {
		b = elem.encode(b, v.Index(i))
	}
	return b
}

func decodeElems(d *decoder, elem *plan, v reflect.Value, n int) error {
	for i := 0; i < n; i++ {
		if err := elem.decode(d, v.Index(i)); err != nil {
			return at(fmt.Sprintf("[%d]", i), err)
		}
	}
	return nil
}

func (b *builder) pointer(p *plan, t reflect.Type, elem *plan) {
	p.min = 1
	p.measure = func(v reflect.Value) (int, error) {
		if v.IsNil() {
			return 1, nil
		}
		if elem.fixed > 0 {
			return 1 + elem.fixed, nil
		}
		k, err := elem.measure(v.Elem())
		return 1 + k, err
	}
	p.encode = func(b []byte, v reflect.Value) []byte {
		if v.IsNil() {
			return append(b, 0)
		}
		return elem.encode(append(b, 1), v.Elem())
	}
	p.decode = func(d *decoder, v reflect.Value) error {
		set, err := d.flag()
		if err != nil || !set {
			v.SetZero()
			return err
		}
		v.Set(reflect.NewAt(elem.typ, d.cut(elem, 1)))
		return elem.decode(d, v.Elem())
	}
}

// field is one struct field's plan.
type field struct {
	index int
	name  string
	plan  *plan
}

func (b *builder) structure(p *plan, t reflect.Type) error {
	fields := make([]field, t.NumField())
	fixed := true
	for i := range fields {
		sf := t.Field(i)
		if !sf.IsExported() {
			return fmt.Errorf("%s.%s is unexported and has no checkpoint encoding", t, sf.Name)
		}
		fp, err := b.build(sf.Type)
		if err != nil {
			return fmt.Errorf("%s.%s: %w", t, sf.Name, err)
		}
		fields[i] = field{index: i, name: "." + sf.Name, plan: fp}
		p.min += fp.min
		fixed = fixed && fp.fixed > 0
	}
	if fixed {
		for _, f := range fields {
			p.fixed += f.plan.fixed
		}
	}
	p.measure = func(v reflect.Value) (int, error) {
		size := 0
		for _, f := range fields {
			if f.plan.fixed > 0 {
				size += f.plan.fixed
				continue
			}
			k, err := f.plan.measure(v.Field(f.index))
			if err != nil {
				return 0, at(f.name, err)
			}
			size += k
		}
		return size, nil
	}
	p.encode = func(b []byte, v reflect.Value) []byte {
		for _, f := range fields {
			b = f.plan.encode(b, v.Field(f.index))
		}
		return b
	}
	p.decode = func(d *decoder, v reflect.Value) error {
		for _, f := range fields {
			if err := f.plan.decode(d, v.Field(f.index)); err != nil {
				return at(f.name, err)
			}
		}
		return nil
	}
	return nil
}

// fingerprint hashes every type reachable from t: its name, kind, field
// names and array lengths. Any change to the layout a body was written
// under changes the fingerprint, so decoding fails instead of
// misreading fields positionally.
func fingerprint(t reflect.Type) [fingerprintLen]byte {
	h := sha256.New()
	seen := map[reflect.Type]int{}
	var walk func(t reflect.Type)
	walk = func(t reflect.Type) {
		if i, ok := seen[t]; ok {
			fmt.Fprintf(h, "@%d;", i)
			return
		}
		seen[t] = len(seen)
		fmt.Fprintf(h, "%s %s", t, t.Kind())
		switch t.Kind() {
		case reflect.Struct:
			fmt.Fprintf(h, "{%d", t.NumField())
			for i := 0; i < t.NumField(); i++ {
				fmt.Fprintf(h, " %s:", t.Field(i).Name)
				walk(t.Field(i).Type)
			}
			fmt.Fprint(h, "}")
		case reflect.Array:
			fmt.Fprintf(h, "[%d]", t.Len())
			walk(t.Elem())
		case reflect.Slice, reflect.Pointer:
			walk(t.Elem())
		}
		fmt.Fprint(h, ";")
	}
	walk(t)
	var fp [fingerprintLen]byte
	copy(fp[:], h.Sum(nil))
	return fp
}

// decoder reads a body front to back. Every read checks the remaining
// length; nothing it decodes can make it read out of bounds or allocate
// more than the input can describe, give or take a chunk per element
// type. chunks holds, by plan id, the unused tail of the chunk each
// element type's slices and pointees are cut from.
type decoder struct {
	buf    []byte
	off    int
	chunks []chunk
}

// chunk is the unused tail of an element type's current chunk: free
// zeroed elements from next on. next is nil once none are left, so it
// never points past the end of its array.
type chunk struct {
	next unsafe.Pointer
	free int
}

// cut returns the address of n zeroed elements of elem's type that
// nothing else refers to. A piece longer than a quarter chunk is an array
// of its own; shorter ones come from the type's chunk, which is replaced
// by a fresh one when it cannot hold them.
func (d *decoder) cut(elem *plan, n int) unsafe.Pointer {
	if n > elem.chunk.Len()/4 {
		return reflect.MakeSlice(reflect.SliceOf(elem.typ), n, n).UnsafePointer()
	}
	c := &d.chunks[elem.id]
	if c.free < n {
		c.next, c.free = reflect.New(elem.chunk).UnsafePointer(), elem.chunk.Len()
	}
	p := c.next
	c.free -= n
	if c.free == 0 {
		c.next = nil
	} else {
		c.next = unsafe.Add(p, n*int(elem.typ.Size()))
	}
	return p
}

// sliceHeader is the runtime layout of a slice.
type sliceHeader struct {
	data     unsafe.Pointer
	len, cap int
}

// setPiece points the settable slice v at n elements cut for it, with
// capacity n.
func (d *decoder) setPiece(v reflect.Value, elem *plan, n int) {
	*(*sliceHeader)(v.Addr().UnsafePointer()) = sliceHeader{data: d.cut(elem, n), len: n, cap: n}
}

var errTruncated = errors.New("body truncated")

func (d *decoder) take(n int) ([]byte, error) {
	if n > len(d.buf)-d.off {
		return nil, errTruncated
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b, nil
}

// flag reads a bool or presence byte, which must be 0 or 1.
func (d *decoder) flag() (bool, error) {
	b, err := d.take(1)
	switch {
	case err != nil:
		return false, err
	case b[0] > 1:
		return false, fmt.Errorf("flag byte is %d (want 0 or 1)", b[0])
	}
	return b[0] == 1, nil
}

func (d *decoder) uvarint() (uint64, error) {
	x, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, varintError(n)
	}
	d.off += n
	return x, nil
}

func (d *decoder) varint() (int64, error) {
	x, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		return 0, varintError(n)
	}
	d.off += n
	return x, nil
}

func varintError(n int) error {
	if n == 0 {
		return errTruncated
	}
	return errors.New("varint overflows 64 bits")
}

// length reads a length prefix for elements at least min bytes wide,
// refusing any the remaining input could not hold.
func (d *decoder) length(min int) (int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if rem := len(d.buf) - d.off; n > uint64(rem/min) {
		return 0, fmt.Errorf("length prefix %d exceeds what the remaining %d bytes can hold", n, rem)
	}
	return int(n), nil
}

// lengthPrefixed reads a length prefix and that many bytes.
func (d *decoder) lengthPrefixed(min int) ([]byte, error) {
	n, err := d.length(min)
	if err != nil {
		return nil, err
	}
	return d.take(n)
}

// measureBytes sizes a string or byte slice: a length prefix, then the
// bytes.
func measureBytes(v reflect.Value) (int, error) { return uvarintLen(uint64(v.Len())) + v.Len(), nil }

func finite(f float64) error {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return fmt.Errorf("non-finite float %v", f)
	}
	return nil
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func varintLen(x int64) int { return uvarintLen(uint64(x<<1) ^ uint64(x>>63)) }

// pathError locates a codec error inside the value: the chain of field
// names and slice indexes leading to it.
type pathError struct {
	path string
	err  error
}

func (e *pathError) Error() string { return e.path + ": " + e.err.Error() }
func (e *pathError) Unwrap() error { return e.err }

// at prefixes one path step to err.
func at(step string, err error) error {
	var pe *pathError
	if errors.As(err, &pe) {
		pe.path = step + pe.path
		return pe
	}
	return &pathError{path: step, err: err}
}
