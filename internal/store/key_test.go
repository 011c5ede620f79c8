package store

import (
	"math/big"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestKeyGoldenDigests pins the canonical key encoding and its SHA-256
// digests to concrete values. Digests are the cache's wire contract (zateld
// reports them to clients, and on-disk layers would address by them), so a
// silent format change must fail here; a deliberate one bumps the kind's
// version suffix and updates these constants.
func TestKeyGoldenDigests(t *testing.T) {
	cases := []struct {
		name      string
		key       *Key
		canonical string
		digest    string
	}{
		{
			name: "workload",
			key: NewKey("workload/v1").Str("scene", "PARK").
				Int("w", 128).Int("h", 128).Int("spp", 2),
			canonical: "workload/v1|scene=PARK|w=128|h=128|spp=2",
			digest:    "511d438be28144494c058ce1551b941cfddd06e90380f5fb970d9bae95b680bc",
		},
		{
			name: "all field kinds and escaping",
			key: NewKey("demo/v1").Str("s", "a|b=c%d").Float("f", 0.1).
				Bool("b", true).Uint64("u", 18446744073709551615).
				Dur("d", 1500*time.Millisecond),
			canonical: "demo/v1|s=a%7Cb%3Dc%25d|f=0.1|b=true|u=18446744073709551615|d=1500000000",
			digest:    "cb502ff34db77e20a5fcbb07d606eed88b01bcef5ed8a8cbc36762814e8908bc",
		},
	}
	for _, c := range cases {
		if got := c.key.Canonical(); got != c.canonical {
			t.Errorf("%s: canonical %q, want %q", c.name, got, c.canonical)
		}
		if got := c.key.Digest().String(); got != c.digest {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.digest)
		}
	}
}

// TestKeyDistinctness checks that the encodings that must not collide
// don't: field order, value types, and structural characters in values.
func TestKeyDistinctness(t *testing.T) {
	pairs := []struct {
		name string
		a, b *Key
	}{
		{"field order", NewKey("k").Int("a", 1).Int("b", 2), NewKey("k").Int("b", 2).Int("a", 1)},
		{"int vs string", NewKey("k").Int("a", 1), NewKey("k").Str("a", "1")},
		{"value vs structural", NewKey("k").Str("a", "x|y=z"), NewKey("k").Str("a", "x").Str("y", "z")},
		{"kind", NewKey("k1").Int("a", 1), NewKey("k2").Int("a", 1)},
		{"bool vs string", NewKey("k").Bool("a", true), NewKey("k").Str("a", "true")},
	}
	for _, p := range pairs {
		switch p.name {
		case "int vs string", "bool vs string":
			// Numeric and bool fields intentionally share the string
			// encoding of their value; distinctness comes from producers
			// using one fixed type per field. Just document the identity.
			if p.a.Digest() != p.b.Digest() {
				t.Errorf("%s: expected identical digests (shared textual encoding)", p.name)
			}
		default:
			if p.a.Digest() == p.b.Digest() {
				t.Errorf("%s: digests collide: %s vs %s", p.name, p.a.Canonical(), p.b.Canonical())
			}
		}
	}
}

// TestKeyFloatCanonical checks the float encoding is the shortest
// round-trippable form, identical across platforms for IEEE-754 doubles.
func TestKeyFloatCanonical(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{0.1, "k|f=0.1"},
		{1.0 / 3.0, "k|f=0.3333333333333333"},
		{0, "k|f=0"},
		{1e21, "k|f=1e+21"},
	}
	for _, c := range cases {
		if got := NewKey("k").Float("f", c.v).Canonical(); got != c.want {
			t.Errorf("Float(%v): %q, want %q", c.v, got, c.want)
		}
	}
}

func TestDigestShort(t *testing.T) {
	d := NewKey("k").Digest()
	if len(d.Short()) != 12 || d.String()[:12] != d.Short() {
		t.Errorf("Short() = %q, want 12-char prefix of %q", d.Short(), d.String())
	}
}

func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		err  bool
	}{
		{"0", 0, false},
		{"1024", 1024, false},
		{"64K", 64 << 10, false},
		{"64KiB", 64 << 10, false},
		{"64kb", 64 << 10, false},
		{"256M", 256 << 20, false},
		{"2GiB", 2 << 30, false},
		{"1T", 1 << 40, false},
		{"10B", 10, false},
		{"", 0, true},
		{"-1", 0, true},
		{"12XB", 0, true},
		{"9223372036854775807", 1<<63 - 1, false},
		{"8388607T", 8388607 << 40, false},
		{"16777216T", 0, true},
		{"8388608T", 0, true},
		{"9223372036854775807K", 0, true},
	}
	for _, c := range cases {
		got, err := ParseSize(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParseSize(%q): err = %v, want err=%v", c.in, err, c.err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseSize(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

// FuzzParseSize: a size ParseSize accepts is never negative and equals the
// exact product of its number and its suffix's multiple; a size whose
// product does not fit int64 is rejected instead of wrapping.
func FuzzParseSize(f *testing.F) {
	for _, s := range []string{"16777216T", "8388608T", "9223372036854775807K", "0", "64KiB", "2g", " 7 MB ", "8388607T"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := ParseSize(s)
		n, mult, parsed := splitSize(s)
		if !parsed {
			if err == nil {
				t.Fatalf("ParseSize(%q) = %d, want an error", s, got)
			}
			return
		}
		want := new(big.Int).Mul(big.NewInt(n), big.NewInt(mult))
		if !want.IsInt64() {
			if err == nil {
				t.Fatalf("ParseSize(%q) = %d, want an overflow error (exact %s)", s, got, want)
			}
			return
		}
		if err != nil {
			t.Fatalf("ParseSize(%q): %v, want %s", s, err, want)
		}
		if got < 0 || got != want.Int64() {
			t.Fatalf("ParseSize(%q) = %d, want %s", s, got, want)
		}
	})
}

// splitSize is the fuzz oracle's reading of a size: the number before a
// binary suffix and the suffix's multiple. parsed is false for anything
// that is not a non-negative base-10 integer with an optional suffix.
func splitSize(s string) (n, mult int64, parsed bool) {
	t := strings.TrimSpace(strings.ToUpper(s))
	mult = 1
	for _, suf := range []string{"TIB", "TB", "T", "GIB", "GB", "G", "MIB", "MB", "M", "KIB", "KB", "K", "B"} {
		if strings.HasSuffix(t, suf) {
			mult = map[byte]int64{'T': 1 << 40, 'G': 1 << 30, 'M': 1 << 20, 'K': 1 << 10, 'B': 1}[suf[0]]
			t = strings.TrimSpace(strings.TrimSuffix(t, suf))
			break
		}
	}
	n, err := strconv.ParseInt(t, 10, 64)
	return n, mult, err == nil && n >= 0
}
