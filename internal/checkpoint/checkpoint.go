// Package checkpoint defines the on-disk format shared by every
// checkpoint kind the simulator writes: an envelope carrying a magic
// string, a kind tag ("world" for a bare simulation, "scenario" for a
// scripted run) and a SHA-256 digest of the body, then the body itself
// in a positional binary encoding (see codec.go). The digest turns
// silent bit rot into a loud error — a checkpoint that does not verify
// is rejected before any state is rebuilt — and the kind tag lets the
// CLI dispatch without decoding the body.
//
// File layout:
//
//	magic    "replend-checkpoint/v2"
//	kind     varint length, then the kind tag
//	digest   32 bytes, SHA-256 of the body
//	body     the rest of the file: an 8-byte schema fingerprint, then the
//	         encoded value
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"reflect"
)

// Magic identifies a checkpoint file. It carries the envelope version:
// incompatible envelope changes bump the suffix.
const Magic = "replend-checkpoint/v2"

// retiredMagic opens every file of the retired JSON format, whose
// envelope was a JSON object with the magic as its first member.
const retiredMagic = `{"magic":"replend-checkpoint/v1"`

// Checkpoint kinds.
const (
	KindWorld    = "world"
	KindScenario = "scenario"
)

func knownKind(kind string) bool { return kind == KindWorld || kind == KindScenario }

// Seal encodes body and wraps it in a verified envelope of the given
// kind. body is a value or a non-nil pointer to one; its type must have
// a checkpoint encoding (see codec.go). The file is sized before it is
// written, so sealing allocates it once.
func Seal(kind string, body any) ([]byte, error) {
	if !knownKind(kind) {
		return nil, fmt.Errorf("checkpoint: unknown kind %q", kind)
	}
	v := reflect.ValueOf(body)
	switch {
	case !v.IsValid():
		return nil, fmt.Errorf("checkpoint: cannot seal a nil %s body", kind)
	case v.Kind() == reflect.Pointer:
		if v.IsNil() {
			return nil, fmt.Errorf("checkpoint: cannot seal a nil %s body", kind)
		}
		v = v.Elem()
	default:
		// Byte arrays encode through Value.Bytes, which needs an
		// addressable value.
		c := reflect.New(v.Type()).Elem()
		c.Set(v)
		v = c
	}
	s, err := schemaFor(v.Type())
	if err != nil {
		return nil, err
	}
	size, err := s.plan.measure(v)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encoding %s body: %w", kind, at(v.Type().String(), err))
	}
	head := len(Magic) + uvarintLen(uint64(len(kind))) + len(kind) + sha256.Size
	total := head + fingerprintLen + size
	buf := make([]byte, 0, total)
	buf = append(buf, Magic...)
	buf = binary.AppendUvarint(buf, uint64(len(kind)))
	buf = append(buf, kind...)
	buf = buf[:head] // the digest is written in place below
	buf = append(buf, s.fingerprint[:]...)
	buf = s.plan.encode(buf, v)
	if len(buf) != total {
		return nil, fmt.Errorf("checkpoint: encoding %s body: wrote %d bytes, measured %d", kind, len(buf)-head, total-head)
	}
	sum := sha256.Sum256(buf[head:])
	copy(buf[head-sha256.Size:head], sum[:])
	return buf, nil
}

// Open verifies an envelope — magic, kind and body digest — and returns
// the kind tag with the body, which is a sub-slice of data, not a copy.
// It never panics on malformed input; every defect is an error.
func Open(data []byte) (kind string, body []byte, err error) {
	rest, ok := bytes.CutPrefix(data, []byte(Magic))
	if !ok {
		if bytes.HasPrefix(data, []byte(retiredMagic)) {
			return "", nil, fmt.Errorf("checkpoint: file is in the retired replend-checkpoint/v1 JSON format; this binary reads only %s files, so re-create the checkpoint", Magic)
		}
		return "", nil, fmt.Errorf("checkpoint: bad magic (not a %s file)", Magic)
	}
	n, k := binary.Uvarint(rest)
	if k <= 0 || n > uint64(len(rest)-k) {
		return "", nil, fmt.Errorf("checkpoint: truncated envelope")
	}
	kind, rest = string(rest[k:k+int(n)]), rest[k+int(n):]
	if !knownKind(kind) {
		return "", nil, fmt.Errorf("checkpoint: unknown kind %q", kind)
	}
	if len(rest) < sha256.Size {
		return "", nil, fmt.Errorf("checkpoint: truncated envelope")
	}
	sum, body := rest[:sha256.Size], rest[sha256.Size:]
	if len(body) == 0 {
		return "", nil, fmt.Errorf("checkpoint: empty body")
	}
	if got := sha256.Sum256(body); !bytes.Equal(got[:], sum) {
		return "", nil, fmt.Errorf("checkpoint: body digest mismatch (file corrupt?)")
	}
	return kind, body, nil
}

// Unmarshal decodes a checkpoint body into the value dst points to. The
// body's schema fingerprint must match dst's type, every byte must be
// consumed, and every value must be well formed (see codec.go), so
// version-skewed or corrupt bodies fail instead of restoring a partial
// state.
func Unmarshal(body []byte, dst any) error {
	v := reflect.ValueOf(dst)
	if v.Kind() != reflect.Pointer || v.IsNil() {
		return fmt.Errorf("checkpoint: Unmarshal needs a non-nil pointer, got %T", dst)
	}
	s, err := schemaFor(v.Type().Elem())
	if err != nil {
		return err
	}
	if len(body) < fingerprintLen || !bytes.Equal(body[:fingerprintLen], s.fingerprint[:]) {
		return fmt.Errorf("checkpoint: schema fingerprint mismatch: the body was not written for this binary's %s layout", v.Type().Elem())
	}
	d := decoder{buf: body, off: fingerprintLen, chunks: make([]chunk, s.plans)}
	if err := s.plan.decode(&d, v.Elem()); err != nil {
		return fmt.Errorf("checkpoint: decoding body at offset %d: %w", d.off, at(v.Type().Elem().String(), err))
	}
	if d.off != len(body) {
		return fmt.Errorf("checkpoint: trailing data after body (%d bytes)", len(body)-d.off)
	}
	return nil
}
