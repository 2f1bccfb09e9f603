package classpack

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"classpack/internal/core"
	"classpack/internal/streams"
)

// TestLegacyVersion1RoundTrip pins backward compatibility: a committed
// version-1 archive (no per-stream checksums, no trailer) must still
// unpack byte-identically through the same Unpack entry point,
// dispatching on the header's version byte.
func TestLegacyVersion1RoundTrip(t *testing.T) {
	files := sample(t)
	stripped := make([][]byte, len(files))
	var err error
	for i, f := range files {
		if stripped[i], err = Strip(f); err != nil {
			t.Fatal(err)
		}
	}
	current, err := Pack(files, nil)
	if err != nil {
		t.Fatal(err)
	}
	if current[4] != core.Version2 {
		t.Fatalf("Pack emits version %d, want %d", current[4], core.Version2)
	}
	legacy := goldenV1(t, "hanoi.v1.cjp")
	if len(legacy) >= len(current) {
		t.Fatalf("legacy archive (%d bytes) not smaller than checked archive (%d bytes)",
			len(legacy), len(current))
	}
	out, err := Unpack(legacy)
	if err != nil {
		t.Fatalf("Unpack(version-1 archive): %v", err)
	}
	checkGoldenClasses(t, "hanoi", out)
	if len(out) != len(stripped) {
		t.Fatalf("legacy unpack: %d files, want %d", len(out), len(stripped))
	}
	for i, f := range out {
		if !bytes.Equal(f.Data, stripped[i]) {
			t.Fatalf("legacy unpack: file %d (%s) differs from Strip(x)", i, f.Name)
		}
	}
}

// TestCheckedArchiveDeterministicAcrossConcurrency pins that the
// version-2 layout — checksums included — is byte-identical at every
// worker count, and that each worker count round-trips.
func TestCheckedArchiveDeterministicAcrossConcurrency(t *testing.T) {
	files := sample(t)
	var want []byte
	for _, j := range concurrencyLevels() {
		opts := DefaultOptions()
		opts.Concurrency = j
		packed, err := Pack(files, &opts)
		if err != nil {
			t.Fatalf("Concurrency=%d: %v", j, err)
		}
		if packed[4] != core.Version2 {
			t.Fatalf("Concurrency=%d: version %d, want %d", j, packed[4], core.Version2)
		}
		if want == nil {
			want = packed
		} else if !bytes.Equal(packed, want) {
			t.Fatalf("Concurrency=%d: checked archive differs from serial archive", j)
		}
		if _, err := UnpackOpts(packed, &Options{Concurrency: j}); err != nil {
			t.Fatalf("UnpackOpts(j=%d) of checked archive: %v", j, err)
		}
	}
}

// TestChecksumOverhead pins the acceptance bound: the integrity layer
// of a version-2 body — a 4-byte CRC32C after each stream's payload plus
// a 4-byte trailer — must cost at most 0.5% of the packed size on a
// bench-scale corpus. The layout is measured with streams.Sections: each
// payload must be followed by its own checksum, and the body must end
// with the checksum of everything before it.
func TestChecksumOverhead(t *testing.T) {
	packed, _ := chaosCorpus(t)
	body := packed[6:]
	secs, err := streams.Sections(body, true)
	if err != nil {
		t.Fatal(err)
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	for _, s := range secs {
		end := s.Off + s.Len
		payload := body[s.Off:end]
		if got := binary.BigEndian.Uint32(body[end:]); got != crc32.Checksum(payload, castagnoli) {
			t.Fatalf("stream %s: the 4 bytes after its payload are not its CRC32C", s.Name)
		}
	}
	trailer := len(body) - 4
	if binary.BigEndian.Uint32(body[trailer:]) != crc32.Checksum(body[:trailer], castagnoli) {
		t.Fatal("body does not end with the CRC32C of everything before it")
	}
	overhead := 4*len(secs) + 4
	if 200*overhead > len(packed)-overhead {
		t.Fatalf("checksum overhead %d bytes is more than 0.5%% of %d unchecked bytes",
			overhead, len(packed)-overhead)
	}
}
