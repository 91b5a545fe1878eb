// Fuzz coverage for the codec's untrusted-input posture: every blob on
// disk (run-cache entries, recorded traces) flows through Reader, so arbitrary
// mutations of those bytes must surface as a sticky error or a NewReader
// rejection — never a panic or an input-independent huge allocation. The crafted-blob tests below pin the two crashers found
// while developing FuzzReader (see take's negative-length guard and
// LenBounded).
package brstate

import (
	"encoding/binary"
	"testing"
)

// exerciseReader drives every Reader decode path over b the way component
// loaders do: primitives, length-prefixed values, owner-sized collections,
// and nested sections. It returns normally on any input; corruption must
// park the Reader in its sticky-error state instead of panicking.
func exerciseReader(b []byte) {
	r, err := NewReader(b)
	if err != nil {
		return
	}
	r.Section("hdr", 1, func(r *Reader) {
		_ = r.U8()
		_ = r.Bool()
		_ = r.U32()
		_ = r.U64()
		_ = r.I64()
		_ = r.F64()
	})
	r.Section("body", 1, func(r *Reader) {
		_ = r.String()
		_ = r.Bytes64()
		n := r.LenAny()
		for i := 0; i < n && r.Err() == nil; i++ {
			_ = r.U64()
		}
		m := r.LenBounded(16)
		sink := make(map[uint64]uint64, m)
		for i := 0; i < m && r.Err() == nil; i++ {
			sink[r.U64()] = r.U64()
		}
	})
	_ = r.Err()
}

// wellFormed builds a valid two-section snapshot matching exerciseReader's
// decode schedule, so the fuzzer starts from bytes that reach every path.
func wellFormed() []byte {
	w := NewWriter()
	w.Section("hdr", 1, func(w *Writer) {
		w.U8(1)
		w.Bool(true)
		w.U32(4)
		w.U64(5)
		w.I64(-6)
		w.F64(8.5)
	})
	w.Section("body", 1, func(w *Writer) {
		w.String("seed")
		w.Bytes64([]byte{9, 10})
		w.Len(2)
		w.U64(11)
		w.U64(12)
		w.Len(1)
		w.U64(13)
		w.U64(14)
	})
	return w.Bytes()
}

func FuzzReader(f *testing.F) {
	f.Add(wellFormed())
	f.Add([]byte{})
	f.Add([]byte(magicOpen))
	f.Add([]byte(magicOpen + "\x01\x00\x00\x00" + magicClose))
	f.Fuzz(func(t *testing.T, b []byte) {
		exerciseReader(b)
	})
}

// corruptU64At overwrites the 8 bytes at off in a copy of b.
func corruptU64At(b []byte, off int, v uint64) []byte {
	out := append([]byte(nil), b...)
	binary.LittleEndian.PutUint64(out[off:], v)
	return out
}

// findU64 locates the first little-endian occurrence of v in b.
func findU64(t *testing.T, b []byte, v uint64) int {
	t.Helper()
	for off := 0; off+8 <= len(b); off++ {
		if binary.LittleEndian.Uint64(b[off:]) == v {
			return off
		}
	}
	t.Fatalf("value %d not found in blob", v)
	return -1
}

// TestCorruptLengthOverflow pins the take() crasher: a string length of
// 2^63 used to overflow int and slice with a negative bound. The Reader
// must absorb it as a sticky error.
func TestCorruptLengthOverflow(t *testing.T) {
	w := NewWriter()
	w.Section("s", 1, func(w *Writer) { w.String("payload-sentinel") })
	blob := w.Bytes()
	// The string's length prefix is the first u64 equal to len("payload-sentinel").
	off := findU64(t, blob, uint64(len("payload-sentinel")))
	for _, huge := range []uint64{1 << 63, ^uint64(0), 1 << 62} {
		b := corruptU64At(blob, off, huge)
		r, err := NewReader(b)
		if err != nil {
			continue // header rejection is an acceptable outcome
		}
		r.Section("s", 1, func(r *Reader) { _ = r.String() })
		if r.Err() == nil {
			t.Errorf("length %#x: corrupt string length decoded without error", huge)
		}
	}
}

// TestCorruptCollectionLength pins the allocation-bomb hazard: an
// owner-sized collection length far beyond the payload must fail in
// LenBounded before it reaches a map/slice pre-size.
func TestCorruptCollectionLength(t *testing.T) {
	w := NewWriter()
	w.Section("m", 1, func(w *Writer) {
		w.Len(2)
		w.U64(100)
		w.U64(200)
	})
	blob := w.Bytes()
	off := findU64(t, blob, 2)
	for _, huge := range []uint64{1 << 40, 1 << 63, ^uint64(0)} {
		b := corruptU64At(blob, off, huge)
		r, err := NewReader(b)
		if err != nil {
			continue
		}
		r.Section("m", 1, func(r *Reader) {
			n := r.LenBounded(8)
			if r.Err() == nil {
				t.Fatalf("length %#x: LenBounded returned %d without error", huge, n)
			}
			if n != 0 {
				t.Errorf("length %#x: failed LenBounded returned %d, want 0", huge, n)
			}
		})
	}
}

// TestLenBoundedAcceptsTightFit checks the bound is not over-eager: a
// collection whose elements exactly fill the remaining payload decodes.
func TestLenBoundedAcceptsTightFit(t *testing.T) {
	w := NewWriter()
	w.Section("m", 1, func(w *Writer) {
		w.Len(4)
		for i := 0; i < 4; i++ {
			w.U64(uint64(i))
		}
	})
	r, err := NewReader(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	r.Section("m", 1, func(r *Reader) {
		// The trailer was stripped by NewReader, so exactly 4*8 bytes remain.
		if n := r.LenBounded(8); n != 4 {
			t.Fatalf("LenBounded = %d, want 4", n)
		}
		for i := 0; i < 4; i++ {
			if got := r.U64(); got != uint64(i) {
				t.Errorf("element %d = %d", i, got)
			}
		}
	})
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestTruncatedSnapshot walks every prefix of a valid snapshot through the
// full decode schedule; none may panic.
func TestTruncatedSnapshot(t *testing.T) {
	blob := wellFormed()
	for i := 0; i <= len(blob); i++ {
		exerciseReader(blob[:i])
	}
}
