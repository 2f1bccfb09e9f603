// Package strip implements the §2 canonicalizations the paper applies
// before any compression, to make jar-format comparisons fair:
//
//   - remove LineNumberTable, LocalVariableTable and SourceFile attributes
//     (and, optionally, unrecognized attributes, which the pack format
//     cannot renumber);
//   - garbage-collect the constant pool, merging duplicate entries;
//   - sort constant-pool entries by type, and Utf8 entries by content.
//
// Renumbering honors §9: integer, float and string constants referenced by
// the one-byte ldc instruction are placed at the smallest indices so ldc
// never needs to grow into ldc_w, keeping all code offsets valid.
package strip

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"classpack/internal/bytecode"
	"classpack/internal/classfile"
	"classpack/internal/par"
)

// Options selects which transformations Apply performs. Unrecognized
// attributes are always dropped: their constant-pool references cannot be
// updated during renumbering (§2 of the paper).
type Options struct {
	// KeepDebug retains LineNumberTable/LocalVariableTable/SourceFile.
	KeepDebug bool
}

// Apply transforms cf in place and reports an error if the classfile's
// bytecode cannot be decoded.
func Apply(cf *classfile.ClassFile, opts Options) error {
	return ApplyScratch(cf, opts, nil)
}

// Scratch holds the reusable working memory of one renumber pass:
// the decoded-instruction arena, mark tables, and content-key buffers.
// One Scratch serves one goroutine; passing the same Scratch to
// successive Apply calls eliminates nearly all per-file allocation.
// The zero value is ready for use.
type Scratch struct {
	arena    []bytecode.Instruction
	codes    []decodedCode
	used     []bool
	ldcRef   []bool
	kbuf     []byte
	offs     []int32
	of       []int32
	byKey    map[string]int32
	entries  []poolEntry
	newIndex []uint16
}

// poolEntry is one distinct constant of a renumber pass: its content
// key, its first occurrence in the old pool, and its position before
// sorting (which the old pool's indices map to).
type poolEntry struct {
	key   string
	first int
	pos   int32
	group int
	ldc   bool
}

// boolTable returns buf resized to n and cleared, reallocating only when
// it has grown.
func boolTable(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// int32Table returns buf resized to n, reallocating only when it has
// grown. Entries are not cleared: callers write every one they read.
func int32Table(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// ApplyScratch is Apply with caller-owned scratch memory (nil behaves
// like Apply).
func ApplyScratch(cf *classfile.ClassFile, opts Options, sc *Scratch) error {
	dropAttrs(cf, opts)
	return renumber(cf, nil, sc)
}

// RenumberWithCode performs the garbage-collect/sort/renumber step using
// pre-decoded instruction lists for Code attributes whose byte arrays do
// not exist yet; the unpacker uses it to build canonical classfiles
// without first encoding code with out-of-range ldc indices.
func RenumberWithCode(cf *classfile.ClassFile, decoded map[*classfile.CodeAttr][]bytecode.Instruction) error {
	return RenumberWithCodeScratch(cf, decoded, nil)
}

// RenumberWithCodeScratch is RenumberWithCode with caller-owned scratch
// memory (nil behaves like RenumberWithCode).
func RenumberWithCodeScratch(cf *classfile.ClassFile, decoded map[*classfile.CodeAttr][]bytecode.Instruction, sc *Scratch) error {
	dropAttrs(cf, Options{})
	return renumber(cf, decoded, sc)
}

// ApplyAll strips every classfile in the slice serially. It is
// ApplyAllN with one worker.
func ApplyAll(cfs []*classfile.ClassFile, opts Options) error {
	return ApplyAllN(cfs, opts, 1)
}

// ApplyAllN strips the classfiles on up to concurrency workers (<= 0
// meaning all cores). Each classfile is canonicalized in place and
// independently of the others, so the result is identical for every
// worker count; the error returned is the one the serial loop would
// report first.
func ApplyAllN(cfs []*classfile.ClassFile, opts Options, concurrency int) error {
	scratch := make([]Scratch, par.Workers(concurrency, len(cfs)))
	return par.DoWorkers(concurrency, len(cfs), func(w, i int) error {
		if err := ApplyScratch(cfs[i], opts, &scratch[w]); err != nil {
			return fmt.Errorf("strip %s: %w", cfs[i].ThisClassName(), err)
		}
		return nil
	})
}

func keepAttr(a classfile.Attribute, opts Options) bool {
	switch a.(type) {
	case *classfile.LineNumberTableAttr, *classfile.LocalVariableTableAttr, *classfile.SourceFileAttr:
		return opts.KeepDebug
	case *classfile.UnknownAttr:
		return false
	default:
		return true
	}
}

func filterAttrs(attrs []classfile.Attribute, opts Options) []classfile.Attribute {
	out := attrs[:0]
	for _, a := range attrs {
		if !keepAttr(a, opts) {
			continue
		}
		if c, ok := a.(*classfile.CodeAttr); ok {
			c.Attrs = filterAttrs(c.Attrs, opts)
		}
		out = append(out, a)
	}
	return out
}

func dropAttrs(cf *classfile.ClassFile, opts Options) {
	cf.Attrs = filterAttrs(cf.Attrs, opts)
	for i := range cf.Fields {
		cf.Fields[i].Attrs = filterAttrs(cf.Fields[i].Attrs, opts)
	}
	for i := range cf.Methods {
		cf.Methods[i].Attrs = filterAttrs(cf.Methods[i].Attrs, opts)
	}
}

// attrRank fixes a canonical attribute order so that files rebuilt by the
// unpacker serialize identically to stripped originals.
func attrRank(a classfile.Attribute) int {
	switch a.(type) {
	case *classfile.CodeAttr, *classfile.ConstantValueAttr, *classfile.InnerClassesAttr:
		return 0
	case *classfile.ExceptionsAttr:
		return 1
	case *classfile.SourceFileAttr:
		return 2
	case *classfile.LineNumberTableAttr:
		return 3
	case *classfile.LocalVariableTableAttr:
		return 4
	case *classfile.SyntheticAttr:
		return 5
	case *classfile.DeprecatedAttr:
		return 6
	default:
		return 7
	}
}

// normalizeAttrs sorts attributes into canonical order and drops empty
// Exceptions and InnerClasses attributes (they carry no information and
// the wire format cannot distinguish them from absence).
func normalizeAttrs(attrs []classfile.Attribute) []classfile.Attribute {
	out := attrs[:0]
	for _, a := range attrs {
		switch a := a.(type) {
		case *classfile.ExceptionsAttr:
			if len(a.Classes) == 0 {
				continue
			}
		case *classfile.InnerClassesAttr:
			if len(a.Entries) == 0 {
				continue
			}
		case *classfile.CodeAttr:
			a.Attrs = normalizeAttrs(a.Attrs)
		}
		out = append(out, a)
	}
	sort.SliceStable(out, func(i, j int) bool { return attrRank(out[i]) < attrRank(out[j]) })
	return out
}

// sortGroup assigns the coarse ordering of §2/§9: ldc-referenced scalars
// first (so they land at one-byte indices), then other scalars, wide
// constants, symbolic entries, and finally Utf8 sorted by content.
func sortGroup(kind classfile.ConstKind, ldcRef bool) int {
	if ldcRef {
		return 0
	}
	switch kind {
	case classfile.KindInteger:
		return 1
	case classfile.KindFloat:
		return 2
	case classfile.KindString:
		return 3
	case classfile.KindLong:
		return 4
	case classfile.KindDouble:
		return 5
	case classfile.KindClass:
		return 6
	case classfile.KindNameAndType:
		return 7
	case classfile.KindFieldref:
		return 8
	case classfile.KindMethodref:
		return 9
	case classfile.KindInterfaceMethodref:
		return 10
	case classfile.KindUtf8:
		return 11
	default:
		return 12
	}
}

// appendContentKey appends the key that identifies a constant by value,
// used both to merge duplicates and as the deterministic sort key. The
// bytes replicate the historical fmt verbs exactly ("%d", "%08x", "%016x"):
// the keys order the renumbered pool, so any drift changes packed output.
func appendContentKey(dst []byte, pool []classfile.Constant, idx uint16, depth int) []byte {
	if idx == 0 || int(idx) >= len(pool) || depth > 4 {
		return strconv.AppendUint(append(dst, '!'), uint64(idx), 10)
	}
	c := &pool[idx]
	switch c.Kind {
	case classfile.KindUtf8:
		return append(append(dst, 'u'), c.Utf8...)
	case classfile.KindInteger:
		return strconv.AppendInt(append(dst, 'i'), int64(c.Int), 10)
	case classfile.KindFloat:
		return appendHexPad(append(dst, 'f'), uint64(float32Bits(c.Float)), 8)
	case classfile.KindLong:
		return strconv.AppendInt(append(dst, 'j'), c.Long, 10)
	case classfile.KindDouble:
		return appendHexPad(append(dst, 'd'), float64Bits(c.Double), 16)
	case classfile.KindClass:
		return appendContentKey(append(dst, 'c'), pool, c.Name, depth+1)
	case classfile.KindString:
		return appendContentKey(append(dst, 's'), pool, c.Str, depth+1)
	case classfile.KindNameAndType:
		dst = appendContentKey(append(dst, 'n'), pool, c.Name, depth+1)
		return appendContentKey(append(dst, 0), pool, c.Desc, depth+1)
	case classfile.KindFieldref, classfile.KindMethodref, classfile.KindInterfaceMethodref:
		dst = appendContentKey(append(dst, 'A'+byte(c.Kind)), pool, c.Class, depth+1)
		return appendContentKey(append(dst, 0), pool, c.NameAndType, depth+1)
	default:
		return strconv.AppendUint(append(dst, '?'), uint64(idx), 10)
	}
}

// appendHexPad appends v as exactly width lowercase hex digits
// (fmt's "%0<width>x" for values that fit).
func appendHexPad(dst []byte, v uint64, width int) []byte {
	const digits = "0123456789abcdef"
	var buf [16]byte
	for i := width - 1; i >= 0; i-- {
		buf[i] = digits[v&0xf]
		v >>= 4
	}
	return append(dst, buf[:width]...)
}

// decodedCode records one Code attribute's decoded instructions: either a
// caller-supplied slice (insns non-nil, the unpack path) or a range of
// the Scratch arena (the arena may have been reallocated by later
// appends, so ranges are resolved against the final arena).
type decodedCode struct {
	attr       *classfile.CodeAttr
	insns      []bytecode.Instruction
	start, end int
}

func renumber(cf *classfile.ClassFile, decoded map[*classfile.CodeAttr][]bytecode.Instruction, sc *Scratch) error {
	if sc == nil {
		sc = &Scratch{}
	}
	cf.Attrs = normalizeAttrs(cf.Attrs)
	for i := range cf.Fields {
		cf.Fields[i].Attrs = normalizeAttrs(cf.Fields[i].Attrs)
	}
	for i := range cf.Methods {
		cf.Methods[i].Attrs = normalizeAttrs(cf.Methods[i].Attrs)
	}
	pool := cf.Pool
	sc.used = boolTable(sc.used, len(pool))
	sc.ldcRef = boolTable(sc.ldcRef, len(pool))
	used, ldcRef := sc.used, sc.ldcRef

	var mark func(idx uint16)
	mark = func(idx uint16) {
		if idx == 0 || int(idx) >= len(pool) || used[idx] {
			return
		}
		used[idx] = true
		c := &pool[idx]
		switch c.Kind {
		case classfile.KindClass:
			mark(c.Name)
		case classfile.KindString:
			mark(c.Str)
		case classfile.KindNameAndType:
			mark(c.Name)
			mark(c.Desc)
		case classfile.KindFieldref, classfile.KindMethodref, classfile.KindInterfaceMethodref:
			mark(c.Class)
			mark(c.NameAndType)
		}
	}

	// Roots: header, members, attributes, and bytecode operands.
	mark(cf.ThisClass)
	mark(cf.SuperClass)
	for _, i := range cf.Interfaces {
		mark(i)
	}
	markMembers := func(members []classfile.Member) {
		for i := range members {
			mark(members[i].Name)
			mark(members[i].Desc)
			markAttrs(members[i].Attrs, mark)
		}
	}
	markMembers(cf.Fields)
	markMembers(cf.Methods)
	markAttrs(cf.Attrs, mark)

	codes := sc.codes[:0]
	arena := sc.arena[:0]
	for mi := range cf.Methods {
		code := classfile.CodeOf(&cf.Methods[mi])
		if code == nil {
			continue
		}
		dc := decodedCode{attr: code}
		insns, ok := decoded[code]
		if !ok {
			start := len(arena)
			grown, err := bytecode.DecodeAppend(arena, code.Code)
			if err != nil {
				return fmt.Errorf("method %s%s: %w",
					cf.MemberName(&cf.Methods[mi]), cf.MemberDesc(&cf.Methods[mi]), err)
			}
			arena = grown
			dc.start, dc.end = start, len(arena)
			insns = arena[start:] // valid for marking until the next append
		} else {
			dc.insns = insns
		}
		for i := range insns {
			in := &insns[i]
			if bytecode.IsCPRef(in.Op) {
				mark(uint16(in.A))
				if in.Op == bytecode.Ldc {
					ldcRef[in.A] = true
				}
			}
		}
		codes = append(codes, dc)
	}
	sc.arena, sc.codes = arena, codes

	// Merge duplicates and order survivors. Every used constant's
	// content key is appended to one buffer and converted to a string
	// once, so each key is a substring of it: the pass allocates once for
	// all keys, not once per constant. Each distinct key becomes one
	// entry, ldc-referenced if any of its duplicates is.
	offs := int32Table(sc.offs, len(pool)+1) // key i is kbuf[offs[i]:offs[i+1]]
	offs[1] = 0
	kbuf := sc.kbuf[:0]
	for i := 1; i < len(pool); i++ {
		if used[i] {
			kbuf = appendContentKey(kbuf, pool, uint16(i), 0)
		}
		offs[i+1] = int32(len(kbuf))
	}
	sc.offs, sc.kbuf = offs, kbuf
	all := string(kbuf)
	if sc.byKey == nil {
		sc.byKey = make(map[string]int32)
	}
	byKey := sc.byKey
	clear(byKey)
	of := int32Table(sc.of, len(pool)) // entry of each used constant
	entries := sc.entries[:0]
	for i := 1; i < len(pool); i++ {
		if !used[i] {
			continue
		}
		key := all[offs[i]:offs[i+1]]
		e, ok := byKey[key]
		if !ok {
			e = int32(len(entries))
			byKey[key] = e
			entries = append(entries, poolEntry{key: key, first: i, pos: e})
		}
		entries[e].ldc = entries[e].ldc || ldcRef[i]
		of[i] = e
	}
	for k := range entries {
		entries[k].group = sortGroup(pool[entries[k].first].Kind, entries[k].ldc)
	}
	// Keys are distinct, so (group, key) is a total order.
	slices.SortFunc(entries, func(a, b poolEntry) int {
		if a.group != b.group {
			return a.group - b.group
		}
		return strings.Compare(a.key, b.key)
	})
	sc.of, sc.entries = of, entries

	// Lay out the new pool and build the translation table.
	newPool := make([]classfile.Constant, 1, len(pool))
	newIndex := slices.Grow(sc.newIndex[:0], len(entries))[:len(entries)] // by pre-sort position
	sc.newIndex = newIndex
	for _, e := range entries {
		newIndex[e.pos] = uint16(len(newPool))
		newPool = append(newPool, pool[e.first])
		if pool[e.first].Kind.Wide() {
			newPool = append(newPool, classfile.Constant{})
		}
	}
	if len(newPool) > 0xFFFF {
		return fmt.Errorf("strip: renumbered pool overflows (%d entries)", len(newPool))
	}
	remap := func(idx uint16) uint16 {
		if idx == 0 || int(idx) >= len(pool) || !used[idx] {
			return 0
		}
		return newIndex[of[idx]]
	}
	// Verify the §9 guarantee before rewriting any code.
	for i := 1; i < len(pool); i++ {
		if used[i] && ldcRef[i] && remap(uint16(i)) > 0xff {
			return fmt.Errorf("strip: ldc constant remapped to index %d > 255", remap(uint16(i)))
		}
	}

	// Rewrite internal pool references.
	for i := 1; i < len(newPool); i++ {
		c := &newPool[i]
		switch c.Kind {
		case classfile.KindClass:
			c.Name = remap(c.Name)
		case classfile.KindString:
			c.Str = remap(c.Str)
		case classfile.KindNameAndType:
			c.Name = remap(c.Name)
			c.Desc = remap(c.Desc)
		case classfile.KindFieldref, classfile.KindMethodref, classfile.KindInterfaceMethodref:
			c.Class = remap(c.Class)
			c.NameAndType = remap(c.NameAndType)
		}
		if c.Kind.Wide() {
			i++
		}
	}
	// Rewrite structural references.
	cf.ThisClass = remap(cf.ThisClass)
	cf.SuperClass = remap(cf.SuperClass)
	for i := range cf.Interfaces {
		cf.Interfaces[i] = remap(cf.Interfaces[i])
	}
	remapMembers := func(members []classfile.Member) {
		for i := range members {
			members[i].Name = remap(members[i].Name)
			members[i].Desc = remap(members[i].Desc)
			remapAttrs(members[i].Attrs, remap)
		}
	}
	remapMembers(cf.Fields)
	remapMembers(cf.Methods)
	remapAttrs(cf.Attrs, remap)
	// Rewrite bytecode operands and re-encode.
	for _, dc := range codes {
		insns := dc.insns
		if insns == nil {
			insns = arena[dc.start:dc.end]
		}
		for i := range insns {
			in := &insns[i]
			if bytecode.IsCPRef(in.Op) {
				in.A = int(remap(uint16(in.A)))
			}
		}
		code, err := bytecode.Encode(insns)
		if err != nil {
			return fmt.Errorf("strip: re-encode: %w", err)
		}
		if dc.attr.Code != nil && len(code) != len(dc.attr.Code) {
			return fmt.Errorf("strip: code size changed from %d to %d", len(dc.attr.Code), len(code))
		}
		dc.attr.Code = code
	}
	cf.Pool = newPool
	return nil
}

func markAttrs(attrs []classfile.Attribute, mark func(uint16)) {
	for _, a := range attrs {
		mark(a2nameIndex(a))
		switch a := a.(type) {
		case *classfile.CodeAttr:
			for _, h := range a.Handlers {
				mark(h.CatchType)
			}
			markAttrs(a.Attrs, mark)
		case *classfile.ConstantValueAttr:
			mark(a.Index)
		case *classfile.ExceptionsAttr:
			for _, c := range a.Classes {
				mark(c)
			}
		case *classfile.SourceFileAttr:
			mark(a.Index)
		case *classfile.LocalVariableTableAttr:
			for _, e := range a.Entries {
				mark(e.Name)
				mark(e.Desc)
			}
		case *classfile.InnerClassesAttr:
			for _, e := range a.Entries {
				mark(e.Inner)
				mark(e.Outer)
				mark(e.InnerName)
			}
		}
	}
}

func remapAttrs(attrs []classfile.Attribute, remap func(uint16) uint16) {
	for _, a := range attrs {
		setNameIndex(a, remap(a2nameIndex(a)))
		switch a := a.(type) {
		case *classfile.CodeAttr:
			for i := range a.Handlers {
				a.Handlers[i].CatchType = remap(a.Handlers[i].CatchType)
			}
			remapAttrs(a.Attrs, remap)
		case *classfile.ConstantValueAttr:
			a.Index = remap(a.Index)
		case *classfile.ExceptionsAttr:
			for i := range a.Classes {
				a.Classes[i] = remap(a.Classes[i])
			}
		case *classfile.SourceFileAttr:
			a.Index = remap(a.Index)
		case *classfile.LocalVariableTableAttr:
			for i := range a.Entries {
				a.Entries[i].Name = remap(a.Entries[i].Name)
				a.Entries[i].Desc = remap(a.Entries[i].Desc)
			}
		case *classfile.InnerClassesAttr:
			for i := range a.Entries {
				a.Entries[i].Inner = remap(a.Entries[i].Inner)
				a.Entries[i].Outer = remap(a.Entries[i].Outer)
				a.Entries[i].InnerName = remap(a.Entries[i].InnerName)
			}
		}
	}
}

// a2nameIndex reads an attribute's name index via its interface; the field
// itself is promoted but the accessor on the interface is unexported.
func a2nameIndex(a classfile.Attribute) uint16 {
	switch a := a.(type) {
	case *classfile.CodeAttr:
		return a.NameIndex
	case *classfile.ConstantValueAttr:
		return a.NameIndex
	case *classfile.ExceptionsAttr:
		return a.NameIndex
	case *classfile.SourceFileAttr:
		return a.NameIndex
	case *classfile.LineNumberTableAttr:
		return a.NameIndex
	case *classfile.LocalVariableTableAttr:
		return a.NameIndex
	case *classfile.SyntheticAttr:
		return a.NameIndex
	case *classfile.DeprecatedAttr:
		return a.NameIndex
	case *classfile.InnerClassesAttr:
		return a.NameIndex
	case *classfile.UnknownAttr:
		return a.NameIndex
	default:
		return 0
	}
}

func setNameIndex(a classfile.Attribute, idx uint16) {
	switch a := a.(type) {
	case *classfile.CodeAttr:
		a.NameIndex = idx
	case *classfile.ConstantValueAttr:
		a.NameIndex = idx
	case *classfile.ExceptionsAttr:
		a.NameIndex = idx
	case *classfile.SourceFileAttr:
		a.NameIndex = idx
	case *classfile.LineNumberTableAttr:
		a.NameIndex = idx
	case *classfile.LocalVariableTableAttr:
		a.NameIndex = idx
	case *classfile.SyntheticAttr:
		a.NameIndex = idx
	case *classfile.DeprecatedAttr:
		a.NameIndex = idx
	case *classfile.InnerClassesAttr:
		a.NameIndex = idx
	case *classfile.UnknownAttr:
		a.NameIndex = idx
	}
}

func float32Bits(v float32) uint32 { return math.Float32bits(v) }
func float64Bits(v float64) uint64 { return math.Float64bits(v) }
