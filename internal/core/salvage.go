package core

import (
	"bufio"
	"bytes"

	"classpack/internal/classfile"
	"classpack/internal/corrupt"
	"classpack/internal/streams"
)

// SalvageResult is what Salvage recovered from a (possibly damaged)
// archive.
type SalvageResult struct {
	// Version is the archive's container version byte.
	Version byte
	// TotalClasses is the class count the archive declares, or 0 when
	// the count itself was unreadable or failed a resource cap. For
	// version-3 archives the trailing index is authoritative when it
	// parses; otherwise the sum of readable per-chunk declarations is
	// used, so the figure can undercount when framing damage hides
	// whole chunks.
	TotalClasses int
	// Classes are the fully decoded classes, in archive order. Within
	// one container body the wire format is sequential and stateful
	// (reference pools, per-stream positions), so once one class fails
	// to decode nothing after it in the same body can be trusted. A
	// version-1/2 archive is one body, so Classes is an intact prefix of
	// it. Version-3 chunks reset all model state, so decoding resumes at
	// the next chunk boundary and Classes may have gaps — consult Damage
	// for which chunks lost classes.
	Classes []*classfile.ClassFile
	// Damage lists everything found damaged, in detection order: per
	// body, the streams quarantined up front (checksum mismatch,
	// undecodable payload, trailer and directory damage), then the
	// failure that ended class decoding; plus version-3 container
	// damage (chunk framing, index, footer).
	Damage []Damage
}

// Damage describes one piece of damage found while salvaging an
// archive.
type Damage struct {
	// Chunk is the index of the version-3 chunk the damage lies in, or
	// -1 for damage outside any chunk: the body of a version-1/2
	// archive, or version-3 chunk framing, class index or footer.
	Chunk int
	// Err is the underlying failure.
	Err *corrupt.Error
	// ClassesLost is how many classes this damage cost: the failure
	// that ended decoding is charged with every class of its body from
	// there on, and a quarantined stream decoding never read costs none.
	// Classes that cannot be attributed to a specific failure (chunks
	// hidden behind framing damage, chunks whose own class count was
	// unreadable) are charged to the last damage entry.
	ClassesLost int
}

// chunkSalvage is the outcome of best-effort decoding one container
// body (a whole version-1/2 archive body, or one version-3 chunk).
type chunkSalvage struct {
	declared    int // body's declared class count, -1 when unreadable
	classes     []*classfile.ClassFile
	quarantined []*corrupt.Error
	abort       *corrupt.Error // failure that ended decoding, nil if complete
	decoded     int64          // decoded wire-stream bytes (budget charge)
}

// damage attributes the body's damage to chunk, in detection order:
// the quarantined streams decoding did not die on, then the failure that
// ended decoding, charged with every class the body lost. When decoding
// died on a quarantined stream, that stream's quarantine is the failure
// and is listed once, last.
func (cs *chunkSalvage) damage(chunk int) []Damage {
	var out []Damage
	for _, q := range cs.quarantined {
		if q != cs.abort {
			out = append(out, Damage{Chunk: chunk, Err: q})
		}
	}
	if cs.abort != nil {
		lost := 0
		if cs.declared >= 0 {
			lost = cs.declared - len(cs.classes)
		}
		out = append(out, Damage{Chunk: chunk, Err: cs.abort, ClassesLost: lost})
	}
	return out
}

// salvageBody decodes as many classes as possible from one container
// body, quarantining damaged streams up front and stopping at the first
// class that reads damaged or inconsistent data.
func salvageBody(opts Options, o UnpackOpts, body []byte, checked bool) chunkSalvage {
	r, quarantined := streams.NewSalvageReader(body, o.Concurrency, o.MaxDecodedBytes, checked)
	cs := chunkSalvage{quarantined: quarantined, decoded: r.DecodedBytes()}
	var err error
	cs.declared, _, err = newUnpacker(opts, r).classes(o,
		func(_ int, cf *classfile.ClassFile) error {
			cs.classes = append(cs.classes, cf)
			return nil
		})
	if err != nil {
		cs.abort = asCorrupt(sMeta, err)
	}
	return cs
}

// Salvage decodes as much of a packed archive as the damage allows,
// instead of failing on the first corrupt byte the way Unpack does.
// Checksum-failing streams (version 2 and later) and streams whose
// payload cannot be decoded are quarantined up front; classes are then
// decoded sequentially until one reads damaged or inconsistent data,
// and every class completed before that point is returned. Version-3
// chunks are isolated failure domains: a damaged chunk costs only its
// own classes, and decoding resumes at the next chunk boundary.
//
// The error return is reserved for inputs that are not a packed archive
// at all (bad magic, unknown version, undecodable scheme): the 6-byte
// header is the root of trust, and without it there is nothing to
// salvage against.
func Salvage(data []byte, o UnpackOpts) (*SalvageResult, error) {
	opts, err := header(data)
	if err != nil {
		return nil, err
	}
	if data[4] == Version3 {
		return salvageV3(data, opts, o), nil
	}
	cs := salvageBody(opts, o, data[6:], data[4] != Version1)
	return &SalvageResult{
		Version:      data[4],
		TotalClasses: max(cs.declared, 0),
		Classes:      cs.classes,
		Damage:       cs.damage(-1),
	}, nil
}

// salvageV3 walks the chunk framing with the chunk walker — the
// framing, not the index, drives recovery, so a destroyed index costs no
// classes — and salvages each chunk in isolation. The walker charges the
// shared decoded-bytes budget and class cap per chunk, as Unpack does.
func salvageV3(data []byte, opts Options, o UnpackOpts) *SalvageResult {
	res := &SalvageResult{Version: Version3}
	ix, ixErr := ReadIndex(data, o)
	if ixErr != nil {
		res.Damage = append(res.Damage, Damage{Chunk: -1, Err: asCorrupt(sIndex, ixErr)})
	}
	maxClasses := EffectiveMaxClasses(o)
	w := newChunkWalker(bufio.NewReader(bytes.NewReader(data[6:])), o)
	declaredSum := 0
	for {
		body, co, err := w.next()
		if err != nil {
			res.Damage = append(res.Damage, Damage{Chunk: -1, Err: asCorrupt(sChunks, err)})
			break
		}
		if body == nil {
			break
		}
		ci := len(w.chunks) - 1
		cs := salvageBody(opts, co, body, true)
		w.charge(cs.decoded, len(cs.classes))
		res.Damage = append(res.Damage, cs.damage(ci)...)
		res.Classes = append(res.Classes, cs.classes...)
		declaredSum += max(cs.declared, 0)
	}
	total := declaredSum
	if total > maxClasses {
		// Several aborting chunks can each declare close to the cap; the
		// sum of their claims is not evidence of real classes beyond it.
		total = maxClasses
	}
	if ixErr == nil {
		// The index is authoritative when it parses: it also counts
		// chunks the framing walk never reached.
		total = ix.NumClasses()
	}
	if total < len(res.Classes) {
		// A lying index cannot make recovered classes count as lost.
		total = len(res.Classes)
	}
	res.TotalClasses = total
	attributed := 0
	for _, d := range res.Damage {
		attributed += d.ClassesLost
	}
	if un := total - len(res.Classes) - attributed; un > 0 {
		if len(res.Damage) == 0 {
			// The framing walk ended cleanly (e.g. a zeroed length uvarint
			// reads as the sentinel) yet the index counts more classes:
			// report the premature end itself.
			res.Damage = append(res.Damage, Damage{Chunk: -1,
				Err: corrupt.Errorf(sChunks, w.pos, "chunk framing ends early: %d classes unaccounted for", un)})
		}
		res.Damage[len(res.Damage)-1].ClassesLost += un
	}
	return res
}

// asCorrupt normalizes any decode failure to a *corrupt.Error, tagging
// errors from outside the taxonomy with the stream they surfaced in.
func asCorrupt(stream string, err error) *corrupt.Error {
	if ce, ok := corrupt.As(err); ok {
		return ce
	}
	return corrupt.New(stream, -1, err)
}
