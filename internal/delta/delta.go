// Package delta implements the CJPD patch container: a compact diff
// between two packed archives that identifies unchanged classes by
// content digest against the old archive and carries only added or
// changed classes as an embedded payload archive. Applying a patch
// reconstructs the new archive byte-for-byte (the packed format is
// deterministic), and the result is verified against the recorded
// digest of the new archive before it is returned.
//
// Layout (all multi-byte integers are unsigned varints unless noted):
//
//	magic      4 bytes  "CJPD"
//	pversion   1 byte   patch-format version (1)
//	newVer     1 byte   container version of the new archive (2 or 3)
//	newOpts    1 byte   the new archive's header options byte
//	uvarint    chunkClasses of the new archive (0 for version 2)
//	oldDigest  32 bytes sha256 of the old archive bytes
//	newDigest  32 bytes sha256 of the new archive bytes
//	uvarint    numOps (one op per class of the new archive)
//	ops        numOps uvarints: 0 = next payload class, k>=1 = copy
//	           the old archive's class at ordinal k-1
//	uvarint    payloadLen
//	payload    payloadLen bytes: a complete packed archive holding the
//	           added/changed classes in op order (absent when 0)
//	crc32c     4 bytes, big-endian Castagnoli CRC over all prior bytes
//
// The whole-patch CRC makes any single corruption detectable before the
// (far more expensive) payload decode and reconstruction begin; the
// payload archive then passes through the normal checked decode path
// with MaxDecodedBytes/MaxClassCount enforced by the caller.
package delta

import (
	"crypto/sha256"
	"encoding/binary"
	"hash/crc32"
	"math"

	"classpack/internal/corrupt"
	"classpack/internal/encoding/varint"
)

// sPatch names the patch container in corrupt errors.
const sPatch = "patch"

// Magic identifies a CJPD patch.
var Magic = [4]byte{'C', 'J', 'P', 'D'}

// PatchVersion is the current patch-format version byte.
const PatchVersion = 1

// crcTable is the CRC32C (Castagnoli) table, the same polynomial the
// archive containers use.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// PayloadOp marks an op slot whose class travels in the patch payload
// (the wire encodes it as 0; copies of old ordinal k are wire k+1).
const PayloadOp = -1

// Patch is a decoded CJPD container.
type Patch struct {
	// NewVersion and NewOptions reproduce the new archive's header: the
	// container version byte (2 or 3) and the raw options byte. Applying
	// re-packs with exactly these choices so the output is byte-identical.
	NewVersion byte
	NewOptions byte
	// ChunkClasses is the new archive's classes-per-chunk (0 for a
	// version-2 new archive, positive for version 3).
	ChunkClasses int
	// OldDigest/NewDigest are sha256 over the full archive bytes.
	OldDigest [sha256.Size]byte
	NewDigest [sha256.Size]byte
	// Ops has one entry per class of the new archive, in archive order:
	// PayloadOp takes the next class from the payload archive; any other
	// value copies the old archive's class at that ordinal.
	Ops []int
	// Payload is a complete packed archive holding the payload classes
	// in op order; empty when every class is a copy.
	Payload []byte
}

// PayloadClasses counts the ops satisfied from the payload archive.
func (p *Patch) PayloadClasses() int {
	n := 0
	for _, op := range p.Ops {
		if op == PayloadOp {
			n++
		}
	}
	return n
}

// Encode serializes the patch.
func (p *Patch) Encode() []byte {
	out := make([]byte, 0, 7+2*sha256.Size+len(p.Ops)+len(p.Payload)+3*varint.MaxLen64+4)
	out = append(out, Magic[:]...)
	out = append(out, PatchVersion, p.NewVersion, p.NewOptions)
	out = varint.AppendUint(out, uint64(p.ChunkClasses))
	out = append(out, p.OldDigest[:]...)
	out = append(out, p.NewDigest[:]...)
	out = varint.AppendUint(out, uint64(len(p.Ops)))
	for _, op := range p.Ops {
		if op == PayloadOp {
			out = varint.AppendUint(out, 0)
		} else {
			out = varint.AppendUint(out, uint64(op)+1)
		}
	}
	out = varint.AppendUint(out, uint64(len(p.Payload)))
	out = append(out, p.Payload...)
	return binary.BigEndian.AppendUint32(out, crc32.Checksum(out, crcTable))
}

// Parse decodes and validates a CJPD patch. maxOps caps the class count
// a patch may describe (the caller passes its effective MaxClassCount);
// a patch over the cap fails wrapping corrupt.ErrTooLarge. All other
// failures caused by the bytes are *corrupt.Error values. The returned
// Payload aliases data.
func Parse(data []byte, maxOps int) (*Patch, error) {
	// Smallest possible patch: fixed fields, three 1-byte varints, CRC.
	if len(data) < 4+3+1+2*sha256.Size+1+1+4 {
		return nil, corrupt.Errorf(sPatch, int64(len(data)), "patch too short (%d bytes)", len(data))
	}
	if data[0] != Magic[0] || data[1] != Magic[1] || data[2] != Magic[2] || data[3] != Magic[3] {
		return nil, corrupt.Errorf(sPatch, 0, "not a CJPD patch")
	}
	// Verify the whole-patch checksum before trusting any field.
	body := data[:len(data)-4]
	want := binary.BigEndian.Uint32(data[len(data)-4:])
	if got := crc32.Checksum(body, crcTable); got != want {
		return nil, corrupt.Errorf(sPatch, int64(len(body)), "patch checksum %08x, want %08x", got, want)
	}
	if data[4] != PatchVersion {
		return nil, corrupt.Errorf(sPatch, 4, "unsupported patch version %d", data[4])
	}
	p := &Patch{NewVersion: data[5], NewOptions: data[6]}
	if p.NewVersion != 2 && p.NewVersion != 3 {
		return nil, corrupt.Errorf(sPatch, 5, "patch targets unsupported container version %d", p.NewVersion)
	}
	pos := 7
	next := func(what string) (uint64, error) {
		v, n, err := varint.Uint(body[pos:])
		if err != nil {
			return 0, corrupt.Errorf(sPatch, int64(pos), "%s: %v", what, err)
		}
		pos += n
		return v, nil
	}
	chunkClasses, err := next("chunk size")
	if err != nil {
		return nil, err
	}
	if chunkClasses > math.MaxInt32 {
		return nil, corrupt.Errorf(sPatch, int64(pos), "implausible chunk size %d", chunkClasses)
	}
	p.ChunkClasses = int(chunkClasses)
	if (p.NewVersion == 3) != (p.ChunkClasses > 0) {
		return nil, corrupt.Errorf(sPatch, int64(pos),
			"version-%d patch with chunk size %d", p.NewVersion, p.ChunkClasses)
	}
	if len(body)-pos < 2*sha256.Size {
		return nil, corrupt.Errorf(sPatch, int64(pos), "patch truncated in digests")
	}
	copy(p.OldDigest[:], body[pos:])
	copy(p.NewDigest[:], body[pos+sha256.Size:])
	pos += 2 * sha256.Size
	numOps, err := next("op count")
	if err != nil {
		return nil, err
	}
	if maxOps > 0 && numOps > uint64(maxOps) {
		return nil, corrupt.TooLarge(sPatch, int64(pos), "patch describes %d classes, cap %d", numOps, maxOps)
	}
	// Every op takes at least one byte, so a larger count is a lie; the
	// bound also keeps the allocation proportional to real input.
	if numOps > uint64(len(body)-pos) {
		return nil, corrupt.Errorf(sPatch, int64(pos),
			"implausible op count %d for %d remaining bytes", numOps, len(body)-pos)
	}
	p.Ops = make([]int, 0, numOps)
	for i := uint64(0); i < numOps; i++ {
		op, err := next("op")
		if err != nil {
			return nil, err
		}
		if op > math.MaxInt32 {
			return nil, corrupt.Errorf(sPatch, int64(pos), "implausible copy ordinal %d", op-1)
		}
		p.Ops = append(p.Ops, int(op)-1)
	}
	payloadLen, err := next("payload length")
	if err != nil {
		return nil, err
	}
	if payloadLen != uint64(len(body)-pos) {
		return nil, corrupt.Errorf(sPatch, int64(pos),
			"payload declares %d bytes, %d present", payloadLen, len(body)-pos)
	}
	if payloadLen > 0 {
		p.Payload = body[pos:]
	}
	return p, nil
}
