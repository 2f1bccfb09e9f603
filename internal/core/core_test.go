package core

import (
	"bytes"
	"fmt"
	"testing"

	"classpack/internal/bytecode"
	"classpack/internal/classfile"
	"classpack/internal/refs"
	"classpack/internal/strip"
	"classpack/internal/synth"
)

// unpackAll decodes an in-memory archive into its classes.
func unpackAll(data []byte) ([]*classfile.ClassFile, error) {
	var out []*classfile.ClassFile
	err := UnpackReader(bytes.NewReader(data), UnpackOpts{}, func(cf *classfile.ClassFile) error {
		out = append(out, cf)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// buildTestClasses assembles a small multi-class "application" exercising
// shared packages, method/field references of every kind, all constant
// types, exception handlers, switches, and inner classes.
func buildTestClasses(t testing.TB) []*classfile.ClassFile {
	t.Helper()
	var cfs []*classfile.ClassFile

	// com/acme/util/Helper: static utilities, string and double constants.
	{
		b := classfile.NewBuilder("com/acme/util/Helper", "java/lang/Object",
			classfile.AccPublic|classfile.AccSuper)
		f := b.AddField(classfile.AccPublic|classfile.AccStatic|classfile.AccFinal, "VERSION", "Ljava/lang/String;")
		b.AttachConstantValue(f, b.String("1.0.2"))
		fd := b.AddField(classfile.AccPublic|classfile.AccStatic, "SCALE", "D")
		b.AttachConstantValue(fd, b.Double(2.5))

		m := b.AddMethod(classfile.AccPublic|classfile.AccStatic, "clamp", "(II)I")
		a := bytecode.NewAssembler()
		big := a.NewLabel()
		a.Local(bytecode.Iload, 0)
		a.Local(bytecode.Iload, 1)
		a.Branch(bytecode.IfIcmpgt, big)
		a.Local(bytecode.Iload, 0)
		a.Op(bytecode.Ireturn)
		a.Bind(big)
		a.Local(bytecode.Iload, 1)
		a.Op(bytecode.Ireturn)
		code, err := a.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		b.AttachCode(m, &classfile.CodeAttr{MaxStack: 2, MaxLocals: 2, Code: code})
		cf, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		cfs = append(cfs, cf)
	}

	// com/acme/app/Main: calls Helper, uses every ldc type, switches,
	// handlers, interface calls, arrays.
	{
		b := classfile.NewBuilder("com/acme/app/Main", "java/lang/Object",
			classfile.AccPublic|classfile.AccSuper)
		b.AddInterface("java/lang/Runnable")
		fCount := b.Fieldref("com/acme/app/Main", "count", "I")
		b.AddField(classfile.AccPrivate, "count", "I")
		fStatic := b.Fieldref("com/acme/app/Main", "shared", "J")
		b.AddField(classfile.AccPrivate|classfile.AccStatic, "shared", "J")
		mClamp := b.Methodref("com/acme/util/Helper", "clamp", "(II)I")
		mRun := b.InterfaceMethodref("java/lang/Runnable", "run", "()V")
		mInit := b.Methodref("java/lang/Object", "<init>", "()V")
		cStr := b.String("the quick brown fox")
		cInt := b.Int(123456)
		cFloat := b.Float(3.5)
		cLong := b.Long(1 << 40)
		cDouble := b.Double(0.125)
		exc := b.Class("java/lang/Exception")

		ctor := b.AddMethod(classfile.AccPublic, "<init>", "()V")
		a := bytecode.NewAssembler()
		a.Local(bytecode.Aload, 0)
		a.CP(bytecode.Invokespecial, mInit)
		a.Op(bytecode.Return)
		code, err := a.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		b.AttachCode(ctor, &classfile.CodeAttr{MaxStack: 1, MaxLocals: 1, Code: code})

		run := b.AddMethod(classfile.AccPublic, "run", "()V")
		a = bytecode.NewAssembler()
		l1, l2, l3, def, end := a.NewLabel(), a.NewLabel(), a.NewLabel(), a.NewLabel(), a.NewLabel()
		hStart, hEnd, hCatch := a.NewLabel(), a.NewLabel(), a.NewLabel()
		a.Bind(hStart)
		a.Ldc(uint16(cInt))
		a.Ldc(uint16(cFloat))
		a.Op(bytecode.F2i)
		a.Op(bytecode.Iadd) // int+int after conversion
		a.Local(bytecode.Istore, 1)
		a.Ldc2(cLong)
		a.CP(bytecode.Putstatic, fStatic)
		a.Ldc2(cDouble)
		a.Op(bytecode.D2i)
		a.Local(bytecode.Istore, 2)
		a.Ldc(uint16(cStr))
		a.Op(bytecode.Pop)
		a.Local(bytecode.Aload, 0)
		a.CP(bytecode.Getfield, fCount)
		a.Local(bytecode.Iload, 1)
		a.CP(bytecode.Invokestatic, mClamp)
		a.TableSwitch(0, []bytecode.Label{l1, l2, l3}, def)
		a.Bind(l1)
		a.Local(bytecode.Aload, 0)
		a.InvokeInterface(mRun, 1)
		a.Branch(bytecode.Goto, end)
		a.Bind(l2)
		a.Local(bytecode.Aload, 0)
		a.Op(bytecode.Dup)
		a.CP(bytecode.Getfield, fCount)
		a.Op(bytecode.Iconst1)
		a.Op(bytecode.Iadd)
		a.CP(bytecode.Putfield, fCount)
		a.Branch(bytecode.Goto, end)
		a.Bind(l3)
		a.Op(bytecode.Iconst3)
		a.NewArray(10) // int[]
		a.Op(bytecode.Pop)
		a.CP(bytecode.Anewarray, b.Class("java/lang/String"))
		// anewarray needs a count; rearrange: push count first.
		a.Op(bytecode.Pop)
		a.Branch(bytecode.Goto, end)
		a.Bind(def)
		a.Local(bytecode.Iload, 2)
		a.LookupSwitch([]int32{-100, 7, 2000}, []bytecode.Label{end, end, end}, end)
		a.Bind(hEnd)
		a.Bind(hCatch)
		a.Op(bytecode.Pop) // drop exception
		a.Bind(end)
		a.Op(bytecode.Return)
		code, err = a.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		attr := &classfile.CodeAttr{MaxStack: 6, MaxLocals: 3, Code: code}
		// Handler range over the front of the method.
		insns, err := bytecode.Decode(code)
		if err != nil {
			t.Fatal(err)
		}
		lastOff := insns[len(insns)-1].Offset
		attr.Handlers = []classfile.ExceptionHandler{
			{StartPC: 0, EndPC: uint16(lastOff / 2), HandlerPC: uint16(lastOff), CatchType: exc},
			{StartPC: 0, EndPC: uint16(lastOff / 3), HandlerPC: uint16(lastOff)},
		}
		b.AttachCode(run, attr)
		b.AttachExceptions(run, []string{"java/io/IOException", "java/lang/InterruptedException"})

		abs := b.AddMethod(classfile.AccPublic|classfile.AccAbstract, "pending",
			"(J[Ljava/lang/String;)Lcom/acme/util/Helper;")
		_ = abs

		b.CF.Attrs = append(b.CF.Attrs, &classfile.InnerClassesAttr{
			Entries: []classfile.InnerClass{{
				Inner:       b.Class("com/acme/app/Main$Inner"),
				Outer:       b.CF.ThisClass,
				InnerName:   b.Utf8("Inner"),
				AccessFlags: classfile.AccPublic | classfile.AccStatic,
			}},
		})
		b.CF.Attrs[len(b.CF.Attrs)-1].(*classfile.InnerClassesAttr).NameIndex = b.Utf8("InnerClasses")

		cf, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		cfs = append(cfs, cf)
	}

	// com/acme/app/Main$Inner: synthetic member, deprecated method.
	{
		b := classfile.NewBuilder("com/acme/app/Main$Inner", "com/acme/app/Main",
			classfile.AccPublic|classfile.AccSuper)
		f := b.AddField(classfile.AccPrivate, "this$0", "Lcom/acme/app/Main;")
		sa := &classfile.SyntheticAttr{}
		sa.NameIndex = b.Utf8("Synthetic")
		f.Attrs = append(f.Attrs, sa)
		m := b.AddMethod(classfile.AccPublic, "legacy", "()V")
		da := &classfile.DeprecatedAttr{}
		da.NameIndex = b.Utf8("Deprecated")
		m.Attrs = append(m.Attrs, da)
		a := bytecode.NewAssembler()
		a.Op(bytecode.Return)
		code, err := a.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		b.AttachCode(m, &classfile.CodeAttr{MaxStack: 0, MaxLocals: 1, Code: code})
		cf, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		cfs = append(cfs, cf)
	}
	return cfs
}

// strippedBytes strips and serializes the classfiles.
func strippedBytes(t testing.TB, cfs []*classfile.ClassFile) [][]byte {
	t.Helper()
	if err := strip.ApplyAll(cfs, strip.Options{}); err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, len(cfs))
	for i, cf := range cfs {
		data, err := classfile.Write(cf)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = data
	}
	return out
}

func roundTrip(t *testing.T, opts Options) {
	t.Helper()
	cfs := buildTestClasses(t)
	want := strippedBytes(t, cfs)
	packed, err := Pack(cfs, opts)
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	back, err := unpackAll(packed)
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	if len(back) != len(cfs) {
		t.Fatalf("got %d classes, want %d", len(back), len(cfs))
	}
	for i, cf := range back {
		if err := classfile.Verify(cf); err != nil {
			t.Fatalf("class %d: verify: %v", i, err)
		}
		got, err := classfile.Write(cf)
		if err != nil {
			t.Fatalf("class %d: write: %v", i, err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("class %d (%s): %d-byte output differs from %d-byte stripped input",
				i, cf.ThisClassName(), len(got), len(want[i]))
		}
	}
}

func TestRoundTripDefault(t *testing.T) { roundTrip(t, DefaultOptions()) }

func TestRoundTripAllOptionCombos(t *testing.T) {
	for _, scheme := range []refs.Scheme{refs.Simple, refs.Basic, refs.MTFBasic,
		refs.MTFTransients, refs.MTFContext, refs.MTFFull} {
		for _, ss := range []bool{false, true} {
			for _, comp := range []bool{false, true} {
				opts := Options{Scheme: scheme, StackState: ss, Compress: comp}
				t.Run(fmt.Sprintf("%v/ss=%v/z=%v", scheme, ss, comp), func(t *testing.T) {
					roundTrip(t, opts)
				})
			}
		}
	}
}

func TestPackRejectsUndecodableScheme(t *testing.T) {
	cfs := buildTestClasses(t)
	strippedBytes(t, cfs)
	for _, s := range []refs.Scheme{refs.Freq, refs.Cache} {
		if _, err := Pack(cfs, Options{Scheme: s, Compress: true}); err == nil {
			t.Errorf("Pack with %v succeeded", s)
		}
	}
}

func TestPackedSmallerThanFlateOfFiles(t *testing.T) {
	cfs := buildTestClasses(t)
	want := strippedBytes(t, cfs)
	packed, err := Pack(cfs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, d := range want {
		total += len(d)
	}
	if len(packed) >= total {
		t.Fatalf("packed %d bytes not smaller than raw %d", len(packed), total)
	}
}

func TestUnpackErrors(t *testing.T) {
	cfs := buildTestClasses(t)
	strippedBytes(t, cfs)
	packed, err := Pack(cfs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := unpackAll(nil); err == nil {
		t.Error("unpackAll(nil) succeeded")
	}
	if _, err := unpackAll([]byte("XXXXXX")); err == nil {
		t.Error("Unpack of junk succeeded")
	}
	bad := append([]byte(nil), packed...)
	bad[4] = 99
	if _, err := unpackAll(bad); err == nil {
		t.Error("Unpack of wrong version succeeded")
	}
	if _, err := unpackAll(packed[:len(packed)/2]); err == nil {
		t.Error("Unpack of truncated archive succeeded")
	}
}

func TestPackStats(t *testing.T) {
	cfs := buildTestClasses(t)
	strippedBytes(t, cfs)
	sizes, err := PackStats(cfs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var cats = map[string]bool{}
	for name, sz := range sizes {
		if sz[0] < 0 || sz[1] < 0 || sz[1] > sz[0]+16 {
			t.Errorf("stream %s: sizes %v implausible", name, sz)
		}
		cats[name[:3]] = true
	}
	for _, want := range []string{"str", "ops", "int", "ref", "msc"} {
		if !cats[want] {
			t.Errorf("no stream in category %q", want)
		}
	}
}

func TestPackDeterministic(t *testing.T) {
	cfs := buildTestClasses(t)
	strippedBytes(t, cfs)
	a, err := Pack(cfs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Pack(cfs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("Pack is not deterministic")
	}
}

func TestRoundTripWithPreload(t *testing.T) {
	for _, scheme := range []refs.Scheme{refs.Simple, refs.Basic, refs.MTFBasic,
		refs.MTFTransients, refs.MTFContext, refs.MTFFull} {
		opts := Options{Scheme: scheme, StackState: true, Compress: true, Preload: true}
		t.Run(scheme.String(), func(t *testing.T) { roundTrip(t, opts) })
	}
}

func TestPreloadShrinksStdlibHeavyArchives(t *testing.T) {
	// The test classes lean on java/lang and java/io heavily; preloading
	// those names should shrink the packed archive (§14 predicts a win on
	// small archives).
	cfs := buildTestClasses(t)
	strippedBytes(t, cfs)
	plain, err := Pack(cfs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Preload = true
	preloaded, err := Pack(cfs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(preloaded) >= len(plain) {
		t.Fatalf("preload did not shrink the archive: %d vs %d", len(preloaded), len(plain))
	}
}

func TestPreloadFlagTravelsInHeader(t *testing.T) {
	cfs := buildTestClasses(t)
	strippedBytes(t, cfs)
	opts := DefaultOptions()
	opts.Preload = true
	packed, err := Pack(cfs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if decodeOptions(packed[5]) != opts {
		t.Fatalf("header options = %+v, want %+v", decodeOptions(packed[5]), opts)
	}
	// Decoding uses the header bit; no options are supplied to Unpack.
	if _, err := unpackAll(packed); err != nil {
		t.Fatal(err)
	}
}

func TestLargeCorpusRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("large corpus round trip skipped in -short mode")
	}
	p, err := synth.ProfileByName("202_jess")
	if err != nil {
		t.Fatal(err)
	}
	cfs, err := synth.GenerateStripped(p, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, len(cfs))
	for i, cf := range cfs {
		if want[i], err = classfile.Write(cf); err != nil {
			t.Fatal(err)
		}
	}
	packed, err := Pack(cfs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	back, err := unpackAll(packed)
	if err != nil {
		t.Fatal(err)
	}
	for i, cf := range back {
		got, err := classfile.Write(cf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("class %d differs on a large corpus", i)
		}
	}
}

func TestEmptyArchive(t *testing.T) {
	packed, err := Pack(nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out, err := unpackAll(packed)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("empty archive decoded %d classes", len(out))
	}
}
