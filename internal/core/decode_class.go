package core

import (
	"fmt"

	"classpack/internal/bytecode"
	"classpack/internal/classfile"
	"classpack/internal/corrupt"
	"classpack/internal/ir"
	"classpack/internal/stackstate"
	"classpack/internal/strip"
)

// Intermediate decoded structures; constant-pool indices are assigned only
// after the whole class is decoded, then canonicalized by the strip
// renumbering so output matches the encoder's input byte-for-byte.

type dConst struct {
	kind classfile.ConstKind
	i    int32
	f    float32
	l    int64
	d    float64
	s    string
}

type dInner struct {
	inner    ir.ClassKey
	hasOuter bool
	outer    ir.ClassKey
	hasName  bool
	name     string
	access   uint16
}

type dField struct {
	flags    uint64
	name     string
	typ      ir.ClassKey
	hasConst bool
	cv       dConst
}

type dHandler struct {
	start, end, handler int
	hasCatch            bool
	catch               ir.ClassKey
}

// span is the half-open range [lo, hi) of one method's entries in an
// arena of its decodedClass.
type span struct{ lo, hi int }

type dMethod struct {
	flags               uint64
	name                string
	sig                 ir.Signature
	exceptions          span // into decodedClass.exceptions
	hasCode             bool
	maxStack, maxLocals int
	handlers            span // into decodedClass.handlers
	insns               span // into decodedClass.insns
}

// decodedClass is one class as the serial decode stage leaves it: every
// wire-dependent value read and resolved to symbolic form, nothing yet
// interned into a constant pool. Its slices are arenas: a class's
// methods hold ranges into them, and the unpacker reuses one
// decodedClass for many classes, so once the arenas have grown decoding
// allocates only what the built class keeps (strings, switch tables).
type decodedClass struct {
	minor, major uint16
	flags        uint64
	this, super  ir.ClassKey
	ifaces       []ir.ClassKey
	inner        []dInner
	fields       []dField
	methods      []dMethod
	exceptions   []ir.ClassKey
	handlers     []dHandler
	insns        []bytecode.Instruction
	// The symbolic constant-pool operands of insns, which index them
	// through Instruction.A until the build stage interns them.
	consts    []dConst
	members   []ir.MemberRef
	classKeys []ir.ClassKey

	// cf is the build stage's result, handed on to visit.
	cf *classfile.ClassFile
}

// reset empties the class, keeping its arenas' capacity.
func (c *decodedClass) reset() {
	*c = decodedClass{
		ifaces:     c.ifaces[:0],
		inner:      c.inner[:0],
		fields:     c.fields[:0],
		methods:    c.methods[:0],
		exceptions: c.exceptions[:0],
		handlers:   c.handlers[:0],
		insns:      c.insns[:0],
		consts:     c.consts[:0],
		members:    c.members[:0],
		classKeys:  c.classKeys[:0],
	}
}

// maxCount bounds decoded element counts; anything larger is a corrupt
// archive, caught before allocation.
const maxCount = 1 << 20

// count reads an element count from the meta stream and bounds it.
func (u *unpacker) count(what string) (int, error) {
	n, err := u.meta.Uint()
	if err != nil {
		return 0, err
	}
	if n > maxCount {
		return 0, corrupt.TooLarge(sMeta, -1, "implausible %s count %d", what, n)
	}
	return int(n), nil
}

// decodeClass is the serial stage of class decoding: it reads one class
// off the wire streams into c, advancing the reference pools and MTF
// state, which is why classes must pass through it in archive order.
func (u *unpacker) decodeClass(c *decodedClass) error {
	c.reset()
	minor, err := u.meta.Uint()
	if err != nil {
		return err
	}
	major, err := u.meta.Uint()
	if err != nil {
		return err
	}
	c.minor, c.major = uint16(minor), uint16(major)
	if c.flags, err = u.meta.Uint(); err != nil {
		return err
	}
	if c.this, err = u.classRef(); err != nil {
		return err
	}
	if c.flags&flagHasSuper != 0 {
		if c.super, err = u.classRef(); err != nil {
			return err
		}
	}
	nIfaces, err := u.count("interface")
	if err != nil {
		return err
	}
	for range nIfaces {
		k, err := u.classRef()
		if err != nil {
			return err
		}
		c.ifaces = append(c.ifaces, k)
	}
	if c.flags&flagHasInner != 0 {
		n, err := u.count("inner class")
		if err != nil {
			return err
		}
		for range n {
			e, err := u.innerEntry()
			if err != nil {
				return err
			}
			c.inner = append(c.inner, e)
		}
	}
	nFields, err := u.count("field")
	if err != nil {
		return err
	}
	for range nFields {
		f, err := u.field()
		if err != nil {
			return err
		}
		c.fields = append(c.fields, f)
	}
	nMethods, err := u.count("method")
	if err != nil {
		return err
	}
	for range nMethods {
		if err := u.method(c); err != nil {
			return err
		}
	}
	return nil
}

func (u *unpacker) innerEntry() (dInner, error) {
	var e dInner
	flags, err := u.meta.Uint()
	if err != nil {
		return e, err
	}
	e.access = uint16(flags)
	if e.inner, err = u.classRef(); err != nil {
		return e, err
	}
	if flags&flagInnerHasOuter != 0 {
		e.hasOuter = true
		if e.outer, err = u.classRef(); err != nil {
			return e, err
		}
	}
	if flags&flagInnerHasName != 0 {
		e.hasName = true
		if e.name, err = u.simpleRef(); err != nil {
			return e, err
		}
	}
	return e, nil
}

func (u *unpacker) field() (dField, error) {
	var f dField
	var err error
	if f.flags, err = u.meta.Uint(); err != nil {
		return f, err
	}
	if f.name, err = u.fieldNameRef(); err != nil {
		return f, err
	}
	if f.typ, err = u.classRef(); err != nil {
		return f, err
	}
	if f.flags&flagHasConst != 0 {
		f.hasConst = true
		if f.cv, err = u.constValue(ir.KeyToType(f.typ)); err != nil {
			return f, err
		}
	}
	return f, nil
}

func (u *unpacker) constValue(t classfile.Type) (dConst, error) {
	var c dConst
	c.kind = constKindForType(t)
	var err error
	switch c.kind {
	case classfile.KindInteger:
		var v int64
		if v, err = u.r.Stream(sIntCV).Int(); err == nil {
			c.i = int32(v)
		}
	case classfile.KindFloat:
		c.f, err = u.readF32()
	case classfile.KindLong:
		c.l, err = u.r.Stream(sLong).Int()
	case classfile.KindDouble:
		c.d, err = u.readF64()
	case classfile.KindString:
		c.s, err = u.stringConstRef()
	default:
		err = fmt.Errorf("core: field type %s cannot carry a constant", t)
	}
	return c, err
}

// method decodes one method, appending its exceptions, handlers and
// instructions to c's arenas and the method itself to c.methods.
func (u *unpacker) method(c *decodedClass) error {
	var m dMethod
	var err error
	if m.flags, err = u.meta.Uint(); err != nil {
		return err
	}
	if m.name, err = u.methodNameRef(); err != nil {
		return err
	}
	if m.sig, err = u.sigRef(); err != nil {
		return err
	}
	nExc, err := u.count("exception")
	if err != nil {
		return err
	}
	m.exceptions.lo = len(c.exceptions)
	for range nExc {
		k, err := u.classRef()
		if err != nil {
			return err
		}
		c.exceptions = append(c.exceptions, k)
	}
	m.exceptions.hi = len(c.exceptions)
	if m.flags&flagHasCode != 0 {
		m.hasCode = true
		if err := u.code(c, &m); err != nil {
			return fmt.Errorf("method %s: %w", m.name, err)
		}
	}
	c.methods = append(c.methods, m)
	return nil
}

// code decodes m's Code attribute into c's handler and instruction
// arenas.
func (u *unpacker) code(c *decodedClass, m *dMethod) error {
	maxes := u.r.Stream(sMaxes)
	v, err := maxes.Uint()
	if err != nil {
		return err
	}
	m.maxStack = int(v)
	if v, err = maxes.Uint(); err != nil {
		return err
	}
	m.maxLocals = int(v)
	nHandlers, err := u.count("handler")
	if err != nil {
		return err
	}
	hs := u.r.Stream(sHandler)
	handlerOffsets := u.hoffs[:0]
	m.handlers.lo = len(c.handlers)
	for range nHandlers {
		var pcs [3]uint64 // start, end, handler
		for k := range pcs {
			if pcs[k], err = hs.Uint(); err != nil {
				return err
			}
		}
		h := dHandler{start: int(pcs[0]), end: int(pcs[1]), handler: int(pcs[2])}
		flag, err := hs.ReadByte()
		if err != nil {
			return err
		}
		if flag == 1 {
			h.hasCatch = true
			if h.catch, err = u.classRef(); err != nil {
				return err
			}
		}
		c.handlers = append(c.handlers, h)
		handlerOffsets = append(handlerOffsets, h.handler)
	}
	m.handlers.hi = len(c.handlers)
	if v, err = u.meta.Uint(); err != nil {
		return err
	}
	// Bound before narrowing to int, so a 64-bit length can neither
	// wrap negative nor size the decode loop.
	if v > 1<<26 {
		return corrupt.TooLarge(sMeta, -1, "code length %d implausible", v)
	}
	codeLen := int(v)
	u.hoffs = handlerOffsets
	var sim *stackstate.Sim
	if u.opts.StackState {
		// Reset copies handlerOffsets, so the u.hoffs scratch can be
		// reused by the next method without corrupting the simulation.
		if u.sim == nil {
			u.sim = stackstate.New(nil, handlerOffsets)
		} else {
			u.sim.Reset(nil, handlerOffsets)
		}
		sim = u.sim
	}
	m.insns.lo = len(c.insns)
	pos := 0
	for pos < codeLen {
		c.insns = append(c.insns, bytecode.Instruction{})
		next, err := u.insn(c, pos, sim, &c.insns[len(c.insns)-1])
		if err != nil {
			return fmt.Errorf("at offset %d: %w", pos, err)
		}
		pos = next
	}
	m.insns.hi = len(c.insns)
	if pos != codeLen {
		return fmt.Errorf("core: instructions end at %d, code length %d", pos, codeLen)
	}
	return nil
}

// ldcFromPseudo maps a typed wire opcode back to the source instruction
// and the constant kind it loads.
func ldcFromPseudo(wire bytecode.Op) (op bytecode.Op, kind classfile.ConstKind, ok bool) {
	switch wire {
	case opLdcInt:
		return bytecode.Ldc, classfile.KindInteger, true
	case opLdcFloat:
		return bytecode.Ldc, classfile.KindFloat, true
	case opLdcString:
		return bytecode.Ldc, classfile.KindString, true
	case opLdcWInt:
		return bytecode.LdcW, classfile.KindInteger, true
	case opLdcWFloat:
		return bytecode.LdcW, classfile.KindFloat, true
	case opLdcWString:
		return bytecode.LdcW, classfile.KindString, true
	case opLdc2Long:
		return bytecode.Ldc2W, classfile.KindLong, true
	case opLdc2Double:
		return bytecode.Ldc2W, classfile.KindDouble, true
	}
	return 0, 0, false
}

// insn decodes one instruction at pos into in. A constant-pool operand
// is left symbolic: in.A indexes the arena of c that holds it — consts
// for ldc, members for field and method instructions, classKeys for
// the class operand of the rest — and the build stage replaces it with
// a pool index.
func (u *unpacker) insn(c *decodedClass, pos int, sim *stackstate.Sim, in *bytecode.Instruction) (int, error) {
	if sim != nil {
		sim.Begin(pos)
	}
	in.Offset = pos
	wireByte, err := u.r.Stream(sOpcodes).ReadByte()
	if err != nil {
		return 0, err
	}
	wire := bytecode.Op(wireByte)
	isLdc := false
	var ldcKind classfile.ConstKind
	if op, kind, ok := ldcFromPseudo(wire); ok {
		isLdc = true
		in.Op = op
		ldcKind = kind
	} else if int(wire) >= numWireOps {
		return 0, fmt.Errorf("core: invalid wire opcode 0x%02x", wireByte)
	} else if sim != nil {
		in.Op = sim.SourceOp(wire)
	} else {
		in.Op = wire
	}

	ctx := 0
	if sim != nil {
		ctx = sim.ContextID()
	}
	var info stackstate.OpInfo
	switch bytecode.FormatOf(in.Op) {
	case bytecode.FmtNone:
	case bytecode.FmtLocal:
		if err := u.readReg(in, false); err != nil {
			return 0, err
		}
	case bytecode.FmtIinc:
		if err := u.readReg(in, true); err != nil {
			return 0, err
		}
	case bytecode.FmtSByte, bytecode.FmtSShort:
		v, err := u.r.Stream(sIntImm).Int()
		if err != nil {
			return 0, err
		}
		in.A = int(v)
	case bytecode.FmtCP1, bytecode.FmtCP2:
		if isLdc {
			cv, err := u.ldcValue(ldcKind)
			if err != nil {
				return 0, err
			}
			in.A = len(c.consts)
			c.consts = append(c.consts, cv)
			info.HasConst = true
			info.Const = constStackKind(ldcKind)
			break
		}
		if err := u.cpOperand(c, in, ctx, &info); err != nil {
			return 0, err
		}
	case bytecode.FmtInvokeInterface:
		m, err := u.memberRef(useInterface, ctx)
		if err != nil {
			return 0, err
		}
		in.A = len(c.members)
		c.members = append(c.members, m)
		e, err := u.methodSig(m.Desc)
		if err != nil {
			return 0, err
		}
		in.B = e.argSlots + 1
		info.HasMethod = true
		info.Params, info.Ret = e.params, e.ret
	case bytecode.FmtMultiANewArray:
		k, err := u.classRef()
		if err != nil {
			return 0, err
		}
		in.A = len(c.classKeys)
		c.classKeys = append(c.classKeys, k)
		dims, err := u.r.Stream(sMiscOp).ReadByte()
		if err != nil {
			return 0, err
		}
		in.B = int(dims)
	case bytecode.FmtNewArray:
		atype, err := u.r.Stream(sMiscOp).ReadByte()
		if err != nil {
			return 0, err
		}
		in.A = int(atype)
	case bytecode.FmtBranch2, bytecode.FmtBranch4:
		rel, err := u.r.Stream(sBranch).Int()
		if err != nil {
			return 0, err
		}
		in.A = pos + int(rel)
	case bytecode.FmtTableSwitch:
		sw := u.r.Stream(sSwitch)
		def, err := sw.Int()
		if err != nil {
			return 0, err
		}
		low, err := sw.Int()
		if err != nil {
			return 0, err
		}
		n, err := sw.Uint()
		if err != nil {
			return 0, err
		}
		if n > 1<<20 {
			return 0, corrupt.TooLarge(sSwitch, -1, "tableswitch with %d targets", n)
		}
		in.Default = pos + int(def)
		in.Low = int32(low)
		in.High = int32(low) + int32(n) - 1
		in.Targets = make([]int, n)
		for i := range in.Targets {
			rel, err := sw.Int()
			if err != nil {
				return 0, err
			}
			in.Targets[i] = pos + int(rel)
		}
	case bytecode.FmtLookupSwitch:
		sw := u.r.Stream(sSwitch)
		def, err := sw.Int()
		if err != nil {
			return 0, err
		}
		n, err := sw.Uint()
		if err != nil {
			return 0, err
		}
		if n > 1<<20 {
			return 0, corrupt.TooLarge(sSwitch, -1, "lookupswitch with %d pairs", n)
		}
		in.Default = pos + int(def)
		in.Keys = make([]int32, n)
		for i := range in.Keys {
			if i == 0 {
				k, err := sw.Int()
				if err != nil {
					return 0, err
				}
				in.Keys[0] = int32(k)
			} else {
				diff, err := sw.Uint()
				if err != nil {
					return 0, err
				}
				in.Keys[i] = in.Keys[i-1] + int32(diff)
			}
		}
		in.Targets = make([]int, n)
		for i := range in.Targets {
			rel, err := sw.Int()
			if err != nil {
				return 0, err
			}
			in.Targets[i] = pos + int(rel)
		}
	default:
		return 0, fmt.Errorf("core: cannot unpack opcode %s", in.Op)
	}

	if sim != nil {
		sim.StepInfo(in, info)
	}
	return pos + in.Size(), nil
}

// constStackKind maps a pool kind to the stack kind ldc pushes.
func constStackKind(k classfile.ConstKind) stackstate.Kind {
	switch k {
	case classfile.KindInteger:
		return stackstate.Int
	case classfile.KindFloat:
		return stackstate.Float
	case classfile.KindString:
		return stackstate.Ref
	case classfile.KindLong:
		return stackstate.Long
	case classfile.KindDouble:
		return stackstate.Double
	}
	return stackstate.Unknown
}

// methodTypes converts a factored signature to the classfile types the
// stack simulation consumes.
func methodTypes(sig ir.Signature) (params []classfile.Type, ret classfile.Type, ok bool) {
	ret = ir.KeyToType(sig[0])
	params = make([]classfile.Type, 0, len(sig)-1)
	for _, k := range sig[1:] {
		params = append(params, ir.KeyToType(k))
	}
	return params, ret, true
}

func (u *unpacker) readReg(in *bytecode.Instruction, iinc bool) error {
	v, err := u.r.Stream(sRegs).Uint()
	if err != nil {
		return err
	}
	in.A = int(v >> 1)
	redundantWide := v&1 != 0
	if iinc {
		d, err := u.r.Stream(sIntImm).Int()
		if err != nil {
			return err
		}
		in.B = int(d)
		in.Wide = redundantWide || in.A > 0xff || in.B < -128 || in.B > 127
		return nil
	}
	in.Wide = redundantWide || in.A > 0xff
	return nil
}

func (u *unpacker) ldcValue(kind classfile.ConstKind) (dConst, error) {
	cv := dConst{kind: kind}
	var err error
	switch kind {
	case classfile.KindInteger:
		var v int64
		if v, err = u.r.Stream(sIntLdc).Int(); err == nil {
			cv.i = int32(v)
		}
	case classfile.KindFloat:
		cv.f, err = u.readF32()
	case classfile.KindString:
		cv.s, err = u.stringConstRef()
	case classfile.KindLong:
		cv.l, err = u.r.Stream(sLong).Int()
	case classfile.KindDouble:
		cv.d, err = u.readF64()
	}
	return cv, err
}

// cpOperand decodes the operand of a field, method or class instruction
// other than invokeinterface and multianewarray into c's arenas.
func (u *unpacker) cpOperand(c *decodedClass, in *bytecode.Instruction, ctx int, info *stackstate.OpInfo) error {
	var use opUse
	switch in.Op {
	case bytecode.Getfield, bytecode.Putfield:
		use = useGetfield
	case bytecode.Getstatic, bytecode.Putstatic:
		use = useGetstatic
	case bytecode.Invokevirtual:
		use = useVirtual
	case bytecode.Invokespecial:
		use = useSpecial
	case bytecode.Invokestatic:
		use = useStatic
	case bytecode.New, bytecode.Anewarray, bytecode.Checkcast, bytecode.Instanceof:
		k, err := u.classRef()
		if err != nil {
			return err
		}
		in.A = len(c.classKeys)
		c.classKeys = append(c.classKeys, k)
		return nil
	default:
		return fmt.Errorf("core: unexpected constant-pool instruction %s", in.Op)
	}
	m, err := u.memberRef(use, ctx)
	if err != nil {
		return err
	}
	in.A = len(c.members)
	c.members = append(c.members, m)
	if use == useGetfield || use == useGetstatic {
		t, err := u.fieldInfoType(m.Desc)
		if err != nil {
			return err
		}
		info.HasField = true
		info.Field = t
		return nil
	}
	e, err := u.methodSig(m.Desc)
	if err != nil {
		return err
	}
	info.HasMethod = true
	info.Params, info.Ret = e.params, e.ret
	return nil
}

// classBuilder is the parallel stage of class decoding: it turns a
// decodedClass into a canonical classfile — interning every operand in
// a fresh constant pool, then renumbering it the way strip does. It
// reads no wire state, so several builders run at once; each owns the
// caches and scratch it reuses across the classes it builds.
type classBuilder struct {
	classNames map[ir.ClassKey]string
	scratch    strip.Scratch
	decoded    map[*classfile.CodeAttr][]bytecode.Instruction
	names      []string
}

func newClassBuilder() *classBuilder {
	return &classBuilder{
		classNames: make(map[ir.ClassKey]string),
		decoded:    make(map[*classfile.CodeAttr][]bytecode.Instruction),
	}
}

// className memoizes ir.KeyToClassName, which joins package and simple
// name into a fresh string on every call.
func (cb *classBuilder) className(k ir.ClassKey) string {
	if s, ok := cb.classNames[k]; ok {
		return s
	}
	s := ir.KeyToClassName(k)
	cb.classNames[k] = s
	return s
}

// build converts the decoded class into a canonical classfile.
func (cb *classBuilder) build(c *decodedClass) (*classfile.ClassFile, error) {
	b := classfile.NewEmptyBuilder(uint16(c.flags))
	b.SetThisClass(cb.className(c.this))
	if c.flags&flagHasSuper != 0 {
		b.SetSuperClass(cb.className(c.super))
	}
	b.CF.MinorVersion = c.minor
	b.CF.MajorVersion = c.major
	for _, k := range c.ifaces {
		b.AddInterface(cb.className(k))
	}
	if len(c.inner) > 0 {
		ic := &classfile.InnerClassesAttr{}
		ic.NameIndex = b.Utf8("InnerClasses")
		for _, e := range c.inner {
			entry := classfile.InnerClass{
				Inner:       b.Class(cb.className(e.inner)),
				AccessFlags: e.access,
			}
			if e.hasOuter {
				entry.Outer = b.Class(cb.className(e.outer))
			}
			if e.hasName {
				entry.InnerName = b.Utf8(e.name)
			}
			ic.Entries = append(ic.Entries, entry)
		}
		b.CF.Attrs = append(b.CF.Attrs, ic)
	}
	addFlagAttrs(b, &b.CF.Attrs, c.flags)

	for _, f := range c.fields {
		member := b.AddField(uint16(f.flags), f.name, ir.KeyToType(f.typ).String())
		if f.hasConst {
			b.AttachConstantValue(member, internConst(b, &f.cv))
		}
		addFlagAttrs(b, &member.Attrs, f.flags)
	}

	clear(cb.decoded)
	for i := range c.methods {
		m := &c.methods[i]
		member := b.AddMethod(uint16(m.flags), m.name, ir.SignatureToDescriptor(m.sig))
		if m.hasCode {
			attr := &classfile.CodeAttr{
				MaxStack:  uint16(m.maxStack),
				MaxLocals: uint16(m.maxLocals),
			}
			code := c.insns[m.insns.lo:m.insns.hi]
			for j := range code {
				if bytecode.IsCPRef(code[j].Op) {
					code[j].A = int(cb.resolveOperand(b, c, &code[j]))
				}
			}
			for _, h := range c.handlers[m.handlers.lo:m.handlers.hi] {
				eh := classfile.ExceptionHandler{
					StartPC:   uint16(h.start),
					EndPC:     uint16(h.end),
					HandlerPC: uint16(h.handler),
				}
				if h.hasCatch {
					eh.CatchType = b.Class(cb.className(h.catch))
				}
				attr.Handlers = append(attr.Handlers, eh)
			}
			b.AttachCode(member, attr)
			cb.decoded[attr] = code
		}
		if m.exceptions.hi > m.exceptions.lo {
			cb.names = cb.names[:0]
			for _, k := range c.exceptions[m.exceptions.lo:m.exceptions.hi] {
				cb.names = append(cb.names, cb.className(k))
			}
			b.AttachExceptions(member, cb.names)
		}
		addFlagAttrs(b, &member.Attrs, m.flags)
	}

	cf, err := b.Build()
	if err != nil {
		return nil, err
	}
	if err := strip.RenumberWithCodeScratch(cf, cb.decoded, &cb.scratch); err != nil {
		return nil, err
	}
	return cf, nil
}

// internConst interns a decoded constant value and returns its index.
func internConst(b *classfile.Builder, cv *dConst) uint16 {
	switch cv.kind {
	case classfile.KindInteger:
		return b.Int(cv.i)
	case classfile.KindFloat:
		return b.Float(cv.f)
	case classfile.KindLong:
		return b.Long(cv.l)
	case classfile.KindDouble:
		return b.Double(cv.d)
	case classfile.KindString:
		return b.String(cv.s)
	}
	return 0
}

// addFlagAttrs materializes the Synthetic/Deprecated flag bits as
// attributes (the strip normalization fixes their order).
func addFlagAttrs(b *classfile.Builder, attrs *[]classfile.Attribute, flags uint64) {
	if flags&flagSynthetic != 0 {
		a := &classfile.SyntheticAttr{}
		a.NameIndex = b.Utf8("Synthetic")
		*attrs = append(*attrs, a)
	}
	if flags&flagDeprecated != 0 {
		a := &classfile.DeprecatedAttr{}
		a.NameIndex = b.Utf8("Deprecated")
		*attrs = append(*attrs, a)
	}
}

// resolveOperand interns the symbolic operand in.A names in c's
// arenas (see insn) and returns its constant-pool index.
func (cb *classBuilder) resolveOperand(b *classfile.Builder, c *decodedClass, in *bytecode.Instruction) uint16 {
	switch in.Op {
	case bytecode.Ldc, bytecode.LdcW, bytecode.Ldc2W:
		return internConst(b, &c.consts[in.A])
	case bytecode.Getfield, bytecode.Putfield, bytecode.Getstatic, bytecode.Putstatic,
		bytecode.Invokevirtual, bytecode.Invokespecial, bytecode.Invokestatic, bytecode.Invokeinterface:
		m := &c.members[in.A]
		owner := cb.className(m.Owner)
		switch m.Kind {
		case classfile.KindFieldref:
			return b.Fieldref(owner, m.Name, m.Desc)
		case classfile.KindInterfaceMethodref:
			return b.InterfaceMethodref(owner, m.Name, m.Desc)
		default:
			return b.Methodref(owner, m.Name, m.Desc)
		}
	}
	return b.Class(cb.className(c.classKeys[in.A]))
}
