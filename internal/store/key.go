// Package store is the content-addressed artifact cache behind Zatel's
// amortization story: profile/quantize/predict once, answer every later
// identical question from memory. Artifacts (workload traces, quantized
// heatmaps, full predictions) are addressed by a stable SHA-256 digest over
// a canonical encoding of everything that determines their value, held in a
// bounded LRU with byte-size accounting, and built at most once per key no
// matter how many callers ask concurrently (singleflight coalescing).
//
// The canonical key encoding is part of the repository's wire contract:
// cmd/zateld reports digests to clients and the golden tests in
// key_test.go pin concrete hex values, so any change to the encoding is a
// deliberate, visible format break (bump the kind's version suffix).
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"time"
)

// Digest is the 256-bit content address of one artifact key.
type Digest [sha256.Size]byte

// String returns the full lowercase hex form.
func (d Digest) String() string {
	var b [2 * sha256.Size]byte
	hex.Encode(b[:], d[:])
	return string(b[:])
}

// Short returns the first 12 hex characters — enough to disambiguate in
// logs and HTTP responses without drowning them.
func (d Digest) Short() string {
	var b [12]byte
	hex.Encode(b[:], d[:6])
	return string(b[:])
}

// Key builds one canonical artifact key: a kind tag followed by
// `|name=value` fields in the exact order the caller appends them. Field
// order is significant by design — every producer writes its fields in one
// fixed, documented order, which keeps the encoding deterministic without
// sorting maps.
type Key struct {
	buf []byte
}

// NewKey starts a key of the given kind. Kind strings carry a version
// suffix ("workload/v1") so format changes produce disjoint digests
// instead of silently colliding with old ones.
func NewKey(kind string) *Key {
	// The longest key in use, predict/v2, is about 650 bytes: no regrowth.
	k := &Key{buf: make([]byte, 0, 1024)}
	k.buf = appendEscaped(k.buf, kind)
	return k
}

// appendEscaped makes field values unambiguous inside the `kind|a=b|c=d`
// framing: the three structural bytes are percent-encoded, everything else
// passes through verbatim.
func appendEscaped(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch s[i] {
		case '%':
			esc = "%25"
		case '|':
			esc = "%7C"
		case '=':
			esc = "%3D"
		default:
			continue
		}
		dst = append(append(dst, s[start:i]...), esc...)
		start = i + 1
	}
	return append(dst, s[start:]...)
}

// field appends `|name=`; with returns the key once the value has followed.
func (k *Key) field(name string) []byte {
	return append(appendEscaped(append(k.buf, '|'), name), '=')
}

func (k *Key) with(buf []byte) *Key {
	k.buf = buf
	return k
}

// Str appends a string field (escaped).
func (k *Key) Str(name, v string) *Key { return k.with(appendEscaped(k.field(name), v)) }

// Int appends an integer field.
func (k *Key) Int(name string, v int) *Key {
	return k.with(strconv.AppendInt(k.field(name), int64(v), 10))
}

// Uint64 appends an unsigned integer field.
func (k *Key) Uint64(name string, v uint64) *Key {
	return k.with(strconv.AppendUint(k.field(name), v, 10))
}

// Float appends a float field in the shortest round-trippable decimal form,
// which is platform-independent for IEEE-754 doubles.
func (k *Key) Float(name string, v float64) *Key {
	return k.with(strconv.AppendFloat(k.field(name), v, 'g', -1, 64))
}

// Bool appends a boolean field.
func (k *Key) Bool(name string, v bool) *Key { return k.with(strconv.AppendBool(k.field(name), v)) }

// Dur appends a duration field as integer nanoseconds.
func (k *Key) Dur(name string, v time.Duration) *Key {
	return k.with(strconv.AppendInt(k.field(name), int64(v), 10))
}

// Canonical returns the canonical encoding accumulated so far. It exists
// for tests and debugging; cache identity is the Digest.
func (k *Key) Canonical() string { return string(k.buf) }

// Digest returns the SHA-256 content address of the canonical encoding.
func (k *Key) Digest() Digest { return sha256.Sum256(k.buf) }
