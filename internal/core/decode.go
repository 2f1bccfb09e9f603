package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"classpack/internal/classfile"
	"classpack/internal/corrupt"
	"classpack/internal/ir"
	"classpack/internal/par"
	"classpack/internal/refs"
	"classpack/internal/stackstate"
	"classpack/internal/streams"
)

// sHeader names the fixed archive header in corrupt errors.
const sHeader = "header"

// DefaultMaxClassCount is the class-count cap applied when UnpackOpts
// does not choose one.
const DefaultMaxClassCount = 1 << 20

// UnpackOpts are the decode-side knobs. Coding choices travel in the
// archive header, so decoding needs no scheme configuration — only
// resource bounds for untrusted input and a worker count.
type UnpackOpts struct {
	// Concurrency bounds the workers for the up-front stream
	// decompression and, while the classes are decoded off the wire in
	// order, for building and renumbering them (0 = all cores, 1 =
	// serial). Output and errors are the same for every value.
	Concurrency int
	// MaxDecodedBytes caps the total decoded size of all wire streams
	// (0 = streams.DefaultMaxDecodedBytes). The cap is enforced before
	// inflation, so a small archive claiming a huge payload fails in
	// O(header) work with an error wrapping corrupt.ErrTooLarge.
	MaxDecodedBytes int64
	// MaxClassCount caps the number of classes materialized
	// (0 = DefaultMaxClassCount).
	MaxClassCount int
}

// BodySlack bounds how much larger than its decode budget a container
// body may be. Encoded streams never exceed their raw size (store is the
// fallback coding), so a valid body is at most the decoded bytes plus
// directory overhead: names, varints and CRCs. Readers that buffer a
// body from a stream or a caller-declared size cap the read at budget +
// BodySlack.
const BodySlack = 1 << 16

// UnpackStreamOpts is UnpackReader over an in-memory archive.
//
// Deprecated: call UnpackReader(bytes.NewReader(data), o, visit). Only
// the benchmark module still uses this name.
func UnpackStreamOpts(data []byte, o UnpackOpts, visit func(*classfile.ClassFile) error) error {
	return UnpackReader(bytes.NewReader(data), o, visit)
}

// DecodeBody decodes one container body — the whole body of a
// version-1/2 archive, or one version-3 chunk — invoking visit with each
// class and its ordinal within the body. checked selects the container layout
// (true for every version-3 chunk and version-2 body). It returns the
// decoded wire-stream bytes the body expanded to, which is what
// MaxDecodedBytes budgets; callers decoding several chunks charge a
// shared budget by shrinking o.MaxDecodedBytes as they go.
func DecodeBody(opts Options, body []byte, checked bool, o UnpackOpts, visit func(ord int, cf *classfile.ClassFile) error) (int64, error) {
	var r *streams.Reader
	var err error
	if checked {
		r, err = streams.NewCheckedReaderLimit(body, o.Concurrency, o.MaxDecodedBytes)
	} else {
		r, err = streams.NewReaderLimit(body, o.Concurrency, o.MaxDecodedBytes)
	}
	if err != nil {
		return 0, err
	}
	_, _, err = newUnpacker(opts, r).classes(o, visit)
	return r.DecodedBytes(), err
}

// classes is the per-class decode loop of every body decoder: it reads
// the body's class count, checks it against o's class cap, then decodes
// the classes and hands each to visit in order. Decoding is a pipeline
// (par.Pipeline): decodeClass reads each class off the wire serially,
// since it advances the reference pools; up to o.Concurrency workers
// build and renumber the decoded classes; visit runs on the calling
// goroutine, in archive order. At most workers + 1 classes are in
// flight, each in its own recycled decodedClass. What visit sees and
// the error returned are the same for every worker count. classes
// returns the declared count (-1 when unreadable or over the cap) and,
// on failure, the index of the class where decoding stopped (-1 when it
// stopped before the first class). A visit error is returned verbatim.
func (u *unpacker) classes(o UnpackOpts, visit func(ord int, cf *classfile.ClassFile) error) (declared, stopped int, err error) {
	count, err := u.meta.Uint()
	if err != nil {
		return -1, -1, fmt.Errorf("core: class count: %w", err)
	}
	if maxClasses := EffectiveMaxClasses(o); count > uint64(maxClasses) {
		return -1, -1, corrupt.TooLarge(sMeta, -1, "class count %d exceeds cap %d", count, maxClasses)
	}
	n := int(count)
	builders := make([]*classBuilder, par.Workers(o.Concurrency, n))
	stopped, err = par.Pipeline(o.Concurrency, n,
		func() *decodedClass { return new(decodedClass) },
		func(i int, c *decodedClass) error {
			if err := u.decodeClass(c); err != nil {
				return fmt.Errorf("core: unpack class %d: %w", i, err)
			}
			return nil
		},
		func(w, i int, c *decodedClass) (err error) {
			if builders[w] == nil {
				builders[w] = newClassBuilder()
			}
			if c.cf, err = builders[w].build(c); err != nil {
				return fmt.Errorf("core: unpack class %d: %w", i, err)
			}
			return nil
		},
		func(i int, c *decodedClass) error {
			cf := c.cf
			c.cf = nil
			return visit(i, cf)
		})
	return n, stopped, err
}

// header validates the 6-byte archive header and returns the coding
// options it declares. The version byte must name a known layout and the
// scheme must be decodable; data[4] remains the caller's version switch.
func header(data []byte) (Options, error) {
	if len(data) < 6 || !bytes.Equal(data[:4], Magic[:]) {
		return Options{}, corrupt.Errorf(sHeader, 0, "not a packed archive")
	}
	if data[4] != Version1 && data[4] != Version2 && data[4] != Version3 {
		return Options{}, corrupt.Errorf(sHeader, 4, "unsupported version %d", data[4])
	}
	opts := decodeOptions(data[5])
	if !opts.Scheme.Decodable() {
		return Options{}, corrupt.Errorf(sHeader, 5, "archive uses undecodable scheme %v", opts.Scheme)
	}
	return opts, nil
}

// ParseHeader validates the fixed 6-byte archive header and returns the
// container version and the coding options it declares. It is the entry
// point for random-access readers, which read the header and the
// trailing index (ReadIndexAt) without touching the body.
func ParseHeader(hdr []byte) (version byte, opts Options, err error) {
	opts, err = header(hdr)
	if err != nil {
		return 0, Options{}, err
	}
	return hdr[4], opts, nil
}

type unpacker struct {
	opts Options
	r    *streams.Reader
	meta *streams.RStream
	decs [numPools]refs.Decoder

	classKeys map[string]ir.ClassKey
	sigs      map[string]ir.Signature
	members   [numPools]map[string]ir.MemberRef

	// Derived-value caches and scratch reused across every class in the
	// archive. References repeat heavily (that is the whole premise of
	// the format), so each derived form is computed once per distinct
	// input rather than once per use site.
	msigs  map[string]*msigEntry
	ftypes map[string]classfile.Type
	sim    *stackstate.Sim
	hoffs  []int
}

// msigEntry caches everything derived from one method descriptor: the
// factored signature, its argument-slot count, and the parameter/return
// types the stack simulation consumes. The type slices are shared across
// instructions; stackstate treats OpInfo.Params as read-only.
type msigEntry struct {
	sig      ir.Signature
	argSlots int
	params   []classfile.Type
	ret      classfile.Type
}

// newUnpacker returns a class decoder over one container's streams, its
// reference pools seeded with the standard table when the archive
// header asks for preloading.
func newUnpacker(opts Options, r *streams.Reader) *unpacker {
	u := &unpacker{
		opts:      opts,
		r:         r,
		meta:      r.Stream(sMeta),
		classKeys: make(map[string]ir.ClassKey),
		sigs:      make(map[string]ir.Signature),
		msigs:     make(map[string]*msigEntry),
		ftypes:    make(map[string]classfile.Type),
	}
	for i := range u.decs {
		u.decs[i], _ = refs.NewDecoder(opts.Scheme)
		u.members[i] = make(map[string]ir.MemberRef)
	}
	if opts.Preload {
		preloadUnpacker(u)
	}
	return u
}

// methodSig memoizes descriptor parsing for method references. Only
// successful parses are cached; a malformed descriptor aborts decoding
// anyway.
func (u *unpacker) methodSig(desc string) (*msigEntry, error) {
	if e, ok := u.msigs[desc]; ok {
		return e, nil
	}
	sig, err := ir.DescriptorToSignature(desc)
	if err != nil {
		return nil, err
	}
	e := &msigEntry{sig: sig, argSlots: sig.ArgSlots()}
	e.params, e.ret, _ = methodTypes(sig)
	u.msigs[desc] = e
	return e, nil
}

// fieldInfoType memoizes the classfile type a field descriptor denotes,
// as consumed by the stack simulation.
func (u *unpacker) fieldInfoType(desc string) (classfile.Type, error) {
	if t, ok := u.ftypes[desc]; ok {
		return t, nil
	}
	k, err := ir.MemberRef{Kind: classfile.KindFieldref, Desc: desc}.FieldTypeKey()
	if err != nil {
		return classfile.Type{}, err
	}
	t := ir.KeyToType(k)
	u.ftypes[desc] = t
	return t, nil
}

// strRef decodes a reference in a pool whose objects are plain strings.
// The defined string is an owned copy (string(raw)), never an alias of
// the decoded stream buffer, so pool entries cannot pin stream memory.
func (u *unpacker) strRef(pool poolID, cat strCat) (string, error) {
	key, isNew, transient, err := u.decs[pool].Decode(u.r.Stream(refStream(pool)), 0)
	if err != nil {
		return "", err
	}
	if !isNew {
		return key, nil
	}
	n, err := u.r.Stream(strLenName[cat]).Uint()
	if err != nil {
		return "", err
	}
	raw, err := u.r.Stream(strChrName[cat]).Raw(int(n))
	if err != nil {
		return "", err
	}
	s := string(raw)
	u.decs[pool].Define(0, s, transient)
	return s, nil
}

func (u *unpacker) pkgRef() (string, error)    { return u.strRef(poolPackage, catPkg) }
func (u *unpacker) simpleRef() (string, error) { return u.strRef(poolSimple, catCls) }
func (u *unpacker) methodNameRef() (string, error) {
	return u.strRef(poolMethodName, catMname)
}
func (u *unpacker) fieldNameRef() (string, error) { return u.strRef(poolFieldName, catFname) }
func (u *unpacker) stringConstRef() (string, error) {
	return u.strRef(poolString, catStr)
}

// classRef decodes a class/primitive/array type reference.
func (u *unpacker) classRef() (ir.ClassKey, error) {
	key, isNew, transient, err := u.decs[poolClass].Decode(u.r.Stream(refStream(poolClass)), 0)
	if err != nil {
		return ir.ClassKey{}, err
	}
	if !isNew {
		k, ok := u.classKeys[key]
		if !ok {
			return ir.ClassKey{}, corrupt.Errorf(refStream(poolClass), -1, "unknown class key %q", key)
		}
		return k, nil
	}
	d := u.r.Stream(sClassDef)
	dims, err := d.Uint()
	if err != nil {
		return ir.ClassKey{}, err
	}
	// The JVM caps array dimensions at 255; anything larger is corrupt
	// and would otherwise size a strings.Repeat allocation.
	if dims > 255 {
		return ir.ClassKey{}, corrupt.Errorf(sClassDef, -1, "array dimensions %d out of range", dims)
	}
	prim, err := d.ReadByte()
	if err != nil {
		return ir.ClassKey{}, err
	}
	k := ir.ClassKey{Dims: int(dims), Prim: prim}
	if prim == 0 {
		if k.Pkg, err = u.pkgRef(); err != nil {
			return ir.ClassKey{}, err
		}
		if k.Simple, err = u.simpleRef(); err != nil {
			return ir.ClassKey{}, err
		}
	}
	ck := classKeyStr(k)
	u.classKeys[ck] = k
	u.decs[poolClass].Define(0, ck, transient)
	return k, nil
}

// sigRef decodes a signature reference.
func (u *unpacker) sigRef() (ir.Signature, error) {
	key, isNew, transient, err := u.decs[poolSig].Decode(u.r.Stream(refStream(poolSig)), 0)
	if err != nil {
		return nil, err
	}
	if !isNew {
		sig, ok := u.sigs[key]
		if !ok {
			return nil, corrupt.Errorf(refStream(poolSig), -1, "unknown signature key %q", key)
		}
		return sig, nil
	}
	n, err := u.meta.Uint()
	if err != nil {
		return nil, err
	}
	if n == 0 || n > 1<<16 {
		return nil, corrupt.Errorf(sMeta, -1, "signature with %d entries", n)
	}
	sig := make(ir.Signature, n)
	for i := range sig {
		if sig[i], err = u.classRef(); err != nil {
			return nil, err
		}
	}
	sk := sig.SigString()
	u.sigs[sk] = sig
	u.decs[poolSig].Define(0, sk, transient)
	return sig, nil
}

// memberRef decodes a field or method reference from the pool implied by
// the instruction's use.
func (u *unpacker) memberRef(use opUse, ctx int) (ir.MemberRef, error) {
	var pool poolID
	var kind classfile.ConstKind
	switch use {
	case useGetfield:
		pool, kind = poolFieldInstance, classfile.KindFieldref
	case useGetstatic:
		pool, kind = poolFieldStatic, classfile.KindFieldref
	case useVirtual:
		pool, kind = poolMethodVirtual, classfile.KindMethodref
	case useSpecial:
		pool, kind = poolMethodSpecial, classfile.KindMethodref
	case useStatic:
		pool, kind = poolMethodStatic, classfile.KindMethodref
	case useInterface:
		pool, kind = poolMethodInterface, classfile.KindInterfaceMethodref
	}
	key, isNew, transient, err := u.decs[pool].Decode(u.r.Stream(refStream(pool)), ctx)
	if err != nil {
		return ir.MemberRef{}, err
	}
	if !isNew {
		m, ok := u.members[pool][key]
		if !ok {
			return ir.MemberRef{}, corrupt.Errorf(refStream(pool), -1, "unknown member key %q", key)
		}
		return m, nil
	}
	m := ir.MemberRef{Kind: kind}
	if m.Owner, err = u.classRef(); err != nil {
		return ir.MemberRef{}, err
	}
	if kind == classfile.KindFieldref {
		if m.Name, err = u.fieldNameRef(); err != nil {
			return ir.MemberRef{}, err
		}
		t, err := u.classRef()
		if err != nil {
			return ir.MemberRef{}, err
		}
		m.Desc = ir.KeyToType(t).String()
	} else {
		if m.Name, err = u.methodNameRef(); err != nil {
			return ir.MemberRef{}, err
		}
		sig, err := u.sigRef()
		if err != nil {
			return ir.MemberRef{}, err
		}
		m.Desc = ir.SignatureToDescriptor(sig)
	}
	mk := memberKeyStr(m)
	u.members[pool][mk] = m
	u.decs[pool].Define(ctx, mk, transient)
	return m, nil
}

func (u *unpacker) readF32() (float32, error) {
	raw, err := u.r.Stream(sFloat).Raw(4)
	if err != nil {
		return 0, err
	}
	return math.Float32frombits(binary.BigEndian.Uint32(raw)), nil
}

func (u *unpacker) readF64() (float64, error) {
	raw, err := u.r.Stream(sDouble).Raw(8)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.BigEndian.Uint64(raw)), nil
}
