package store

import (
	"errors"
	"fmt"
	"sync"
)

// Codec serializes one artifact family for the disk and peer tiers. Kinds
// are versioned ("rt.workload/v1"): a format change registers a new kind,
// and entries written under a kind the running binary no longer knows are
// skipped (treated as misses), never misread.
//
// Encode/Decode must round-trip: Decode(Encode(v)) yields a value
// equivalent to v for every consumer. Decode also reports the decoded
// value's resident size so the memory tier can re-admit it with exact byte
// accounting (<= 0 defers to the Sizer interface like a build would).
type Codec interface {
	// Kind returns the versioned format tag written into every disk
	// entry's header.
	Kind() string
	// Encodes reports whether this codec can serialize v.
	Encodes(v any) bool
	// Encode serializes v.
	Encode(v any) ([]byte, error)
	// Decode deserializes a payload previously produced by Encode of the
	// same kind, returning the value and its resident size in bytes.
	Decode(data []byte) (v any, size int64, err error)
}

var (
	codecMu     sync.RWMutex
	codecByName = map[string]Codec{}
	codecList   []Codec
)

// RegisterCodec adds a codec to the process-wide registry the disk tier
// consults; artifact-owning packages call it from init(). Registering two
// codecs under one kind is a programming error and panics.
func RegisterCodec(c Codec) {
	codecMu.Lock()
	defer codecMu.Unlock()
	kind := c.Kind()
	if kind == "" {
		panic("store: codec with empty kind")
	}
	if _, dup := codecByName[kind]; dup {
		panic(fmt.Sprintf("store: codec kind %q registered twice", kind))
	}
	codecByName[kind] = c
	codecList = append(codecList, c)
}

// codecForKind resolves a disk entry's header tag (nil = unknown kind).
func codecForKind(kind string) Codec {
	codecMu.RLock()
	defer codecMu.RUnlock()
	return codecByName[kind]
}

// codecForValue finds a codec able to serialize v (nil = none; such
// artifacts stay memory-only).
func codecForValue(v any) Codec {
	codecMu.RLock()
	defer codecMu.RUnlock()
	for _, c := range codecList {
		if c.Encodes(v) {
			return c
		}
	}
	return nil
}

// EncodeFramed serializes v through its registered codec and wraps the
// payload in the integrity frame (magic, version, kind, length, payload
// SHA-256) — the format written to disk and served to peers. Values no
// codec can serialize are an error.
func EncodeFramed(v any) (data []byte, kind string, err error) {
	c := codecForValue(v)
	if c == nil {
		return nil, "", fmt.Errorf("store: no codec can serialize %T", v)
	}
	payload, err := c.Encode(v)
	if err != nil {
		return nil, "", err
	}
	data, err = encodeDiskEntry(c.Kind(), payload)
	if err != nil {
		return nil, "", err
	}
	return data, c.Kind(), nil
}

// errUnknownKind marks an intact frame of a kind this binary registers no
// codec for: a newer or retired format, not corruption.
var errUnknownKind = errors.New("store: unknown codec kind")

// DecodeFramed verifies a framed entry (header, payload checksum) and
// decodes it through the registered codec for its kind, returning the
// value and its resident size. It is the one verification both lower tiers
// run. Every deviation — bad magic, unsupported version, torn length,
// checksum mismatch, unknown kind, codec rejection — is an error; callers
// must treat the bytes as untrusted and never use a partially-decoded
// value.
func DecodeFramed(data []byte) (v any, size int64, kind string, err error) {
	kind, payload, err := parseDiskEntry(data)
	if err != nil {
		return nil, 0, "", err
	}
	c := codecForKind(kind)
	if c == nil {
		return nil, 0, kind, fmt.Errorf("%w %q", errUnknownKind, kind)
	}
	v, size, err = c.Decode(payload)
	if err != nil {
		return nil, 0, kind, fmt.Errorf("decode %s: %w", kind, err)
	}
	return v, sizeOf(v, size), kind, nil
}
