package classpack

import (
	"bytes"
	"errors"
	"hash/crc32"
	"io"
	"runtime"
	"testing"

	"classpack/internal/core"
	"classpack/internal/encoding/varint"
	"classpack/internal/faultinject"
)

// bombArchive builds a syntactically valid archive at the given wire
// version whose stream directory claims rawLen decoded bytes backed by
// an empty payload. Version 2 bombs carry correct checksums, so they
// reach the budget check rather than dying at the CRC gate.
func bombArchive(t *testing.T, rawLen uint64, version byte) []byte {
	t.Helper()
	packed, err := Pack(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	bomb := append([]byte(nil), packed[:6]...) // real magic/version/options header
	bomb[4] = version
	var body []byte
	body = varint.AppendUint(body, 1) // stream count
	name := "class.meta"
	body = varint.AppendUint(body, uint64(len(name)))
	body = append(body, name...)
	body = varint.AppendUint(body, rawLen) // claimed decoded size
	body = append(body, 1)                 // coding: store
	body = varint.AppendUint(body, 0)      // encoded length: nothing behind the claim
	if version >= 2 {
		castagnoli := crc32.MakeTable(crc32.Castagnoli)
		appendCRC := func(b []byte, c uint32) []byte {
			return append(b, byte(c>>24), byte(c>>16), byte(c>>8), byte(c))
		}
		body = appendCRC(body, crc32.Checksum(nil, castagnoli)) // empty payload CRC
		body = appendCRC(body, crc32.Checksum(body, castagnoli))
	}
	return append(bomb, body...)
}

// TestDecompressionBombFailsFast pins the bomb defense at both wire
// versions: a ~40-byte archive claiming a 4 GiB stream must be rejected
// at the directory walk — with ErrTooLarge, and without allocating
// anywhere near the claimed size.
func TestDecompressionBombFailsFast(t *testing.T) {
	for _, version := range []byte{1, 2} {
		bomb := bombArchive(t, 4<<30, version)

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Unpack(bomb)
		runtime.ReadMemStats(&after)

		if !errors.Is(err, ErrTooLarge) {
			t.Fatalf("v%d: Unpack(bomb) = %v, want ErrTooLarge", version, err)
		}
		if _, ok := AsCorrupt(err); !ok {
			t.Fatalf("v%d: bomb rejection is not a CorruptError: %v", version, err)
		}
		// Rejection happens before any stream materializes; the whole call
		// should stay within a modest constant, not the 4 GiB claim.
		if delta := after.TotalAlloc - before.TotalAlloc; delta > 1<<20 {
			t.Fatalf("v%d: rejecting the bomb allocated %d bytes", version, delta)
		}
	}
}

// TestPackJarBomb pins the jar-intake cap: a ~256 KB jar whose one
// class member inflates to 256 MiB is refused against MaxDecodedBytes
// with ErrTooLarge, having inflated no more than the budget.
func TestPackJarBomb(t *testing.T) {
	jar := faultinject.JarBomb("Bomb.class", 256)
	opts := DefaultOptions()
	opts.MaxDecodedBytes = 1 << 20

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := PackJar(jar, &opts)
	runtime.ReadMemStats(&after)

	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("PackJar(%d-byte bomb) = %v, want ErrTooLarge", len(jar), err)
	}
	if delta := after.TotalAlloc - before.TotalAlloc; delta > 8<<20 {
		t.Fatalf("refusing the jar bomb allocated %d bytes", delta)
	}
}

// TestOpenArchiveSizeBomb pins the lazy-open defense for version-1/2
// archives (which have no chunk framing, so OpenArchive falls back to
// an eager whole-body read): a hostile caller-supplied size over a tiny
// reader must be rejected against the decode budget in O(1) memory, not
// allocated up front.
func TestOpenArchiveSizeBomb(t *testing.T) {
	packed, err := Pack(sample(t), nil) // version 2, a few KiB
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(packed)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = OpenArchive(r, 4<<30, nil) // claims 4 GiB backed by the small reader
	runtime.ReadMemStats(&after)

	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("OpenArchive(hostile size) = %v, want ErrTooLarge", err)
	}
	if _, ok := AsCorrupt(err); !ok {
		t.Fatalf("size-bomb rejection is not a CorruptError: %v", err)
	}
	if delta := after.TotalAlloc - before.TotalAlloc; delta > 1<<20 {
		t.Fatalf("rejecting the size bomb allocated %d bytes", delta)
	}

	// A size merely inflated beyond the reader (but within budget) must
	// fail as corruption — short read — after allocating only what
	// actually arrived.
	if _, err := OpenArchive(bytes.NewReader(packed), int64(len(packed))+100, nil); err == nil {
		t.Fatal("OpenArchive accepted a size larger than the reader")
	} else if _, ok := AsCorrupt(err); !ok {
		t.Fatalf("short-read rejection is not a CorruptError: %v", err)
	}

	// And the honest size still opens.
	if _, err := OpenArchive(bytes.NewReader(packed), int64(len(packed)), nil); err != nil {
		t.Fatalf("honest open: %v", err)
	}
}

// zeroArchive is an io.Reader yielding a 6-byte archive header and then
// n zero bytes, counting how many bytes were read from it.
type zeroArchive struct {
	hdr  []byte
	n    int64
	read int64
}

func (z *zeroArchive) Read(p []byte) (int, error) {
	if len(z.hdr) > 0 {
		k := copy(p, z.hdr)
		z.hdr = z.hdr[k:]
		z.read += int64(k)
		return k, nil
	}
	if z.n == 0 {
		return 0, io.EOF
	}
	k := int(min(int64(len(p)), z.n))
	clear(p[:k])
	z.n -= int64(k)
	z.read += int64(k)
	return k, nil
}

// TestUnpackStreamBoundedRead pins the streaming reader's input bound:
// a valid header followed by far more zeros than the decode budget
// allows must fail with ErrTooLarge having read at most the budget plus
// core.BodySlack. For versions 1 and 2 the zeros are the body; for
// version 3 the first zero is the end-of-chunks sentinel and the rest is
// the index tail.
func TestUnpackStreamBoundedRead(t *testing.T) {
	const budget = 1 << 20
	// The bufio reader under the decoder reads ahead at most one 4 KiB
	// buffer; header, sentinel and footer add a few bytes more.
	const readAhead = 4096 + 64
	packed, err := Pack(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, version := range []byte{1, 2, 3} {
		hdr := append([]byte(nil), packed[:6]...)
		hdr[4] = version
		src := &zeroArchive{hdr: hdr, n: 16 << 20}
		err := UnpackStream(src, func(File) error { return nil }, &Options{MaxDecodedBytes: budget})
		if !errors.Is(err, ErrTooLarge) {
			t.Fatalf("v%d: UnpackStream(header + 16 MiB of zeros) = %v, want ErrTooLarge", version, err)
		}
		if _, ok := AsCorrupt(err); !ok {
			t.Fatalf("v%d: rejection is not a CorruptError: %v", version, err)
		}
		if limit := int64(budget + core.BodySlack + readAhead); src.read > limit {
			t.Fatalf("v%d: read %d bytes before failing, limit %d", version, src.read, limit)
		}
	}
}

// TestMaxDecodedBytesOption checks the per-call override: a claim that
// fits the default 1 GiB budget still fails against a caller cap.
func TestMaxDecodedBytesOption(t *testing.T) {
	bomb := bombArchive(t, 1<<20, 2)
	if _, err := Unpack(bomb); errors.Is(err, ErrTooLarge) {
		// The 1 MiB claim is under the default budget; it must fail for
		// a different reason (empty payload), not the cap.
		t.Fatalf("1 MiB claim hit the default cap: %v", err)
	}
	opts := &Options{MaxDecodedBytes: 1 << 16}
	_, err := UnpackOpts(bomb, opts)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("UnpackOpts(bomb, 64KiB cap) = %v, want ErrTooLarge", err)
	}
}

// TestMaxClassCountOption checks the materialization cap: a valid
// archive with a small class-count cap fails with ErrTooLarge before
// decoding any class.
func TestMaxClassCountOption(t *testing.T) {
	files := sample(t)
	if len(files) < 3 {
		t.Fatalf("corpus too small: %d files", len(files))
	}
	files = files[:3]
	packed, err := Pack(files, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unpack(packed); err != nil {
		t.Fatalf("pristine archive: %v", err)
	}
	_, err = UnpackOpts(packed, &Options{MaxClassCount: 2})
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("UnpackOpts(3 classes, cap 2) = %v, want ErrTooLarge", err)
	}
}
