package streams

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"classpack/internal/corrupt"
)

// checkedWriter builds a three-stream writer with known contents.
func checkedWriter() *Writer {
	w := NewWriter()
	w.Stream("a.ints").Uint(300)
	w.Stream("b.raw").Write(bytes.Repeat([]byte("payload"), 50))
	w.Stream("c.code").Write(bytes.Repeat([]byte{0x2a, 0xb4}, 200))
	return w
}

// goldenBody returns the container body of a committed version-1
// archive (testdata/golden at the repository root): the plain layout,
// which the reader still accepts but the writer no longer produces.
func goldenBody(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile("../../testdata/golden/hanoi.v1.cjp")
	if err != nil {
		t.Fatal(err)
	}
	return data[6:]
}

// withoutChecksums removes the per-stream and trailer CRC32Cs from a
// checked container. What remains is the plain layout of the same
// streams: both layouts share every directory entry and payload byte.
func withoutChecksums(t testing.TB, checked []byte) []byte {
	t.Helper()
	secs, err := Sections(checked, true)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	prev := int64(0)
	for _, s := range secs {
		end := s.Off + s.Len
		out = append(out, checked[prev:end]...)
		prev = end + crcSize
	}
	return append(out, checked[prev:len(checked)-crcSize]...)
}

func TestCheckedRoundTrip(t *testing.T) {
	checked, err := checkedWriter().FinishChecked(true, 1)
	if err != nil {
		t.Fatal(err)
	}
	plain := withoutChecksums(t, checked)
	if _, err := NewReaderLimit(plain, 1, 0); err != nil {
		t.Fatalf("checked container without its checksums is not a plain container: %v", err)
	}
	// Overhead is exactly one CRC per stream plus the trailer.
	if want := len(plain) + crcSize*(3+1); len(checked) != want {
		t.Fatalf("checked container is %d bytes, want %d", len(checked), want)
	}
	r, err := NewCheckedReaderLimit(checked, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := r.Stream("a.ints").Uint(); err != nil || v != 300 {
		t.Fatalf("a.ints = %d, %v", v, err)
	}
	if r.Stream("b.raw").Remaining() != 350 {
		t.Fatalf("b.raw has %d bytes", r.Stream("b.raw").Remaining())
	}
	// The unchecked reader must not accept the checked layout: the CRC
	// bytes corrupt its framing.
	if _, err := NewReaderLimit(checked, 1, 0); err == nil {
		t.Fatal("unchecked reader parsed a checked container")
	}
}

func TestCheckedDeterministicAcrossWorkers(t *testing.T) {
	w := checkedWriter()
	want, err := w.FinishChecked(true, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 4, 0} {
		got, err := w.FinishChecked(true, n)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("FinishChecked differs at concurrency %d", n)
		}
	}
}

func TestCheckedReaderRejectsAnyFlip(t *testing.T) {
	checked, err := checkedWriter().FinishChecked(true, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The trailer covers every byte, so any single flip must be caught.
	for off := 0; off < len(checked); off += 37 {
		damaged := append([]byte(nil), checked...)
		damaged[off] ^= 0x40
		_, err := NewCheckedReaderLimit(damaged, 1, 0)
		var ce *corrupt.Error
		if !errors.As(err, &ce) {
			t.Fatalf("flip at %d: err = %v, want *corrupt.Error", off, err)
		}
		if ce.Stream != trailerStream {
			t.Fatalf("flip at %d attributed to %q, want trailer (checked first)", off, ce.Stream)
		}
	}
	// Truncation below the trailer size is also a trailer error.
	if _, err := NewCheckedReaderLimit(checked[:2], 1, 0); err == nil {
		t.Fatal("truncated container accepted")
	}
}

func TestSalvageReaderQuarantinesOnlyDamagedStream(t *testing.T) {
	checked, err := checkedWriter().FinishChecked(true, 1)
	if err != nil {
		t.Fatal(err)
	}
	sections, err := Sections(checked, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(sections) != 3 {
		t.Fatalf("%d sections, want 3", len(sections))
	}
	var target Section
	for _, s := range sections {
		if s.Name == "b.raw" {
			target = s
		}
	}
	if target.Len == 0 {
		t.Fatal("b.raw payload not found or empty")
	}
	damaged := append([]byte(nil), checked...)
	damaged[target.Off+target.Len/2] ^= 1

	r, damage := NewSalvageReader(damaged, 1, 0, true)
	names := map[string]bool{}
	for _, d := range damage {
		names[d.Stream] = true
	}
	// The flip breaks both the covering trailer and b.raw's own CRC.
	if !names[trailerStream] || !names["b.raw"] || len(names) != 2 {
		t.Fatalf("damage report %v, want exactly trailer and b.raw", damage)
	}
	// The damaged stream is quarantined: present, but every read fails
	// with the quarantining error.
	q := r.Stream("b.raw").Quarantined()
	if q == nil || q.Stream != "b.raw" {
		t.Fatalf("b.raw quarantine = %v", q)
	}
	if _, err := r.Stream("b.raw").ReadByte(); !errors.Is(err, q) {
		t.Fatalf("read of quarantined stream: %v, want the quarantine error", err)
	}
	if _, err := r.Stream("b.raw").Raw(1); !errors.Is(err, q) {
		t.Fatalf("Raw of quarantined stream: %v, want the quarantine error", err)
	}
	// Undamaged neighbors decode intact.
	if v, err := r.Stream("a.ints").Uint(); err != nil || v != 300 {
		t.Fatalf("a.ints after salvage = %d, %v", v, err)
	}
	if r.Stream("c.code").Quarantined() != nil {
		t.Fatal("undamaged stream quarantined")
	}
}

func TestSalvageReaderTrailerOnlyDamage(t *testing.T) {
	checked, err := checkedWriter().FinishChecked(true, 1)
	if err != nil {
		t.Fatal(err)
	}
	damaged := append([]byte(nil), checked...)
	damaged[len(damaged)-1] ^= 1 // inside the trailer CRC itself
	r, damage := NewSalvageReader(damaged, 1, 0, true)
	if len(damage) != 1 || damage[0].Stream != trailerStream {
		t.Fatalf("damage = %v, want exactly one trailer region", damage)
	}
	for _, name := range []string{"a.ints", "b.raw", "c.code"} {
		if r.Stream(name).Quarantined() != nil {
			t.Fatalf("stream %s quarantined by trailer-only damage", name)
		}
	}
}

func TestSectionsLayouts(t *testing.T) {
	full, err := checkedWriter().FinishChecked(true, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, checked := range []bool{true, false} {
		data := full
		if !checked {
			data = withoutChecksums(t, full)
		}
		sections, err := Sections(data, checked)
		if err != nil {
			t.Fatalf("checked=%v: %v", checked, err)
		}
		if len(sections) != 3 {
			t.Fatalf("checked=%v: %d sections, want 3", checked, len(sections))
		}
		var prevEnd int64
		for _, s := range sections {
			if s.Off < prevEnd || s.Off+s.Len > int64(len(data)) {
				t.Fatalf("checked=%v: section %s [%d,+%d) out of order or bounds",
					checked, s.Name, s.Off, s.Len)
			}
			prevEnd = s.Off + s.Len
		}
	}
	if _, err := Sections([]byte{0xff, 0xff}, false); err == nil {
		t.Fatal("Sections accepted garbage")
	}
}
