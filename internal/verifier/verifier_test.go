package verifier

import (
	"bytes"
	"testing"

	"classpack/internal/bytecode"
	"classpack/internal/classfile"
	"classpack/internal/core"
	"classpack/internal/minijava"
	"classpack/internal/strip"
	"classpack/internal/synth"
)

// TestMiniJavaOutputVerifies runs the dataflow verifier over compiler
// output for a program exercising every MiniJava construct.
func TestMiniJavaOutputVerifies(t *testing.T) {
	cfs, err := minijava.Compile(`
class Main { public static void main(String[] a) {
    int[] xs;
    int i;
    xs = new int[8];
    i = 0;
    while (i < xs.length) { xs[i] = i * i; i = i + 1; }
    if (xs[3] == 9 && !(xs[2] != 4)) System.out.println("ok");
    else System.out.println(new Alg().gcd(84, 36));
} }
class Alg {
    int calls;
    public int gcd(int a, int b) {
        int r;
        calls = calls + 1;
        if (b == 0) r = a; else r = this.gcd(b, a % b);
        return r;
    }
}
`, minijava.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cf := range cfs {
		if err := Class(cf); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCorporaVerify runs the verifier over generated corpora — the
// strongest check that the synthesizer emits type-correct bytecode.
func TestCorporaVerify(t *testing.T) {
	for _, name := range []string{"Hanoi", "222_mpegaudio", "213_javac", "jmark20"} {
		t.Run(name, func(t *testing.T) {
			p, err := synth.ProfileByName(name)
			if err != nil {
				t.Fatal(err)
			}
			cfs, err := synth.GenerateStripped(p, 0.03)
			if err != nil {
				t.Fatal(err)
			}
			for _, cf := range cfs {
				if err := Class(cf); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestClassesMatchesSerial checks the parallel whole-archive sweep:
// Classes agrees with a serial Class loop on both clean and broken
// corpora, at several worker counts.
func TestClassesMatchesSerial(t *testing.T) {
	p, err := synth.ProfileByName("Hanoi")
	if err != nil {
		t.Fatal(err)
	}
	cfs, err := synth.GenerateStripped(p, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []int{1, 2, 0} {
		if err := Classes(cfs, j); err != nil {
			t.Fatalf("Classes(j=%d) rejected a clean corpus: %v", j, err)
		}
	}
	// Break one method body; every worker count must report it, and the
	// parallel sweep must name the same failure the serial one does.
	var broken *classfile.ClassFile
	for _, cf := range cfs {
		for mi := range cf.Methods {
			if code := classfile.CodeOf(&cf.Methods[mi]); code != nil && len(code.Code) > 0 {
				code.Code[0] = byte(bytecode.Pop)
				broken = cf
				break
			}
		}
		if broken != nil {
			break
		}
	}
	if broken == nil {
		t.Fatal("no method body to corrupt")
	}
	serial := Classes(cfs, 1)
	if serial == nil {
		t.Fatal("serial sweep accepted corrupted bytecode")
	}
	for _, j := range []int{2, 0} {
		err := Classes(cfs, j)
		if err == nil {
			t.Fatalf("Classes(j=%d) accepted corrupted bytecode", j)
		}
		if err.Error() != serial.Error() {
			t.Fatalf("Classes(j=%d) = %q, serial = %q", j, err, serial)
		}
	}
}

// TestUnpackedArchiveVerifies closes the loop: classes that went through
// pack/unpack still pass dataflow verification.
func TestUnpackedArchiveVerifies(t *testing.T) {
	p, err := synth.ProfileByName("202_jess")
	if err != nil {
		t.Fatal(err)
	}
	cfs, err := synth.GenerateStripped(p, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := core.Pack(cfs, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var back []*classfile.ClassFile
	err = core.UnpackReader(bytes.NewReader(packed), core.UnpackOpts{}, func(cf *classfile.ClassFile) error {
		back = append(back, cf)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, cf := range back {
		if err := Class(cf); err != nil {
			t.Fatal(err)
		}
	}
}

// buildMethod assembles a one-method class for negative tests.
func buildMethod(t *testing.T, desc string, maxStack, maxLocals int,
	emit func(b *classfile.Builder, a *bytecode.Assembler)) *classfile.ClassFile {
	t.Helper()
	b := classfile.NewBuilder("T", "java/lang/Object", classfile.AccPublic)
	m := b.AddMethod(classfile.AccPublic|classfile.AccStatic, "t", desc)
	a := bytecode.NewAssembler()
	emit(b, a)
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	b.AttachCode(m, &classfile.CodeAttr{
		MaxStack: uint16(maxStack), MaxLocals: uint16(maxLocals), Code: code,
	})
	cf, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return cf
}

func TestRejectsBadBytecode(t *testing.T) {
	cases := map[string]func(b *classfile.Builder, a *bytecode.Assembler){
		"stack underflow": func(b *classfile.Builder, a *bytecode.Assembler) {
			a.Op(bytecode.Iadd)
			a.Op(bytecode.Return)
		},
		"type mismatch add": func(b *classfile.Builder, a *bytecode.Assembler) {
			a.Op(bytecode.Iconst1)
			a.Op(bytecode.Fconst1)
			a.Op(bytecode.Iadd)
			a.Op(bytecode.Return)
		},
		"wrong return": func(b *classfile.Builder, a *bytecode.Assembler) {
			a.Op(bytecode.Iconst1)
			a.Op(bytecode.Ireturn) // method returns void
		},
		"falls off end": func(b *classfile.Builder, a *bytecode.Assembler) {
			a.Op(bytecode.Iconst1)
			a.Op(bytecode.Pop)
		},
		"uninitialized local": func(b *classfile.Builder, a *bytecode.Assembler) {
			a.Local(bytecode.Iload, 1)
			a.Op(bytecode.Pop)
			a.Op(bytecode.Return)
		},
		"split long local": func(b *classfile.Builder, a *bytecode.Assembler) {
			a.Op(bytecode.Lconst0)
			a.Local(bytecode.Lstore, 1)
			a.Op(bytecode.Iconst1)
			a.Local(bytecode.Istore, 2) // clobbers the long's upper half
			a.Local(bytecode.Lload, 1)
			a.Op(bytecode.Pop2)
			a.Op(bytecode.Return)
		},
		"inconsistent merge": func(b *classfile.Builder, a *bytecode.Assembler) {
			els := a.NewLabel()
			end := a.NewLabel()
			a.Op(bytecode.Iconst1)
			a.Branch(bytecode.Ifeq, els)
			a.Op(bytecode.Iconst2) // then: int on stack
			a.Branch(bytecode.Goto, end)
			a.Bind(els)
			a.Op(bytecode.Fconst1) // else: float on stack
			a.Bind(end)
			a.Op(bytecode.Pop)
			a.Op(bytecode.Return)
		},
		"stack depth merge": func(b *classfile.Builder, a *bytecode.Assembler) {
			els := a.NewLabel()
			end := a.NewLabel()
			a.Op(bytecode.Iconst1)
			a.Branch(bytecode.Ifeq, els)
			a.Op(bytecode.Iconst2)
			a.Op(bytecode.Iconst3) // depth 2
			a.Branch(bytecode.Goto, end)
			a.Bind(els)
			a.Op(bytecode.Iconst4) // depth 1
			a.Bind(end)
			a.Op(bytecode.Pop)
			a.Op(bytecode.Return)
		},
		"overflow max_stack": func(b *classfile.Builder, a *bytecode.Assembler) {
			for i := 0; i < 5; i++ {
				a.Op(bytecode.Iconst1) // max_stack is 2
			}
			a.Op(bytecode.Return)
		},
		"dup of long": func(b *classfile.Builder, a *bytecode.Assembler) {
			a.Op(bytecode.Lconst0)
			a.Op(bytecode.Dup)
			a.Op(bytecode.Return)
		},
		"getfield on int": func(b *classfile.Builder, a *bytecode.Assembler) {
			a.Op(bytecode.Iconst1)
			a.CP(bytecode.Getfield, b.Fieldref("T", "x", "I"))
			a.Op(bytecode.Return)
		},
		"branch into operand": func(b *classfile.Builder, a *bytecode.Assembler) {
			// Assembled via raw code below; placeholder here.
			a.Op(bytecode.Return)
		},
	}
	for name, emit := range cases {
		t.Run(name, func(t *testing.T) {
			maxStack := 2
			if name == "stack depth merge" {
				maxStack = 3
			}
			cf := buildMethod(t, "()V", maxStack, 4, emit)
			if name == "branch into operand" {
				// Overwrite with hand-crafted code: goto lands mid-sipush.
				code := classfile.CodeOf(&cf.Methods[0])
				code.Code = []byte{byte(bytecode.Goto), 0, 4, byte(bytecode.Sipush), 0, 0xb1, byte(bytecode.Return)}
			}
			if err := Class(cf); err == nil {
				t.Fatalf("verifier accepted %s", name)
			}
		})
	}
}

func TestAcceptsValidConstructs(t *testing.T) {
	cases := map[string]struct {
		desc     string
		maxStack int
		emit     func(b *classfile.Builder, a *bytecode.Assembler)
	}{
		"long arithmetic": {"(JJ)J", 4, func(b *classfile.Builder, a *bytecode.Assembler) {
			a.Local(bytecode.Lload, 0)
			a.Local(bytecode.Lload, 2)
			a.Op(bytecode.Ladd)
			a.Op(bytecode.Lreturn)
		}},
		"double locals": {"(D)D", 4, func(b *classfile.Builder, a *bytecode.Assembler) {
			a.Local(bytecode.Dload, 0)
			a.Op(bytecode.Dconst1)
			a.Op(bytecode.Dmul)
			a.Local(bytecode.Dstore, 2)
			a.Local(bytecode.Dload, 2)
			a.Op(bytecode.Dreturn)
		}},
		"loop with merge": {"(I)I", 2, func(b *classfile.Builder, a *bytecode.Assembler) {
			loop, end := a.NewLabel(), a.NewLabel()
			a.Op(bytecode.Iconst0)
			a.Local(bytecode.Istore, 1)
			a.Bind(loop)
			a.Local(bytecode.Iload, 1)
			a.Local(bytecode.Iload, 0)
			a.Branch(bytecode.IfIcmpge, end)
			a.Iinc(1, 1)
			a.Branch(bytecode.Goto, loop)
			a.Bind(end)
			a.Local(bytecode.Iload, 1)
			a.Op(bytecode.Ireturn)
		}},
		"dup2 pair": {"(J)J", 6, func(b *classfile.Builder, a *bytecode.Assembler) {
			a.Local(bytecode.Lload, 0)
			a.Op(bytecode.Dup2)
			a.Op(bytecode.Ladd)
			a.Op(bytecode.Lreturn)
		}},
		"switch": {"(I)I", 2, func(b *classfile.Builder, a *bytecode.Assembler) {
			c0, c1, def := a.NewLabel(), a.NewLabel(), a.NewLabel()
			a.Local(bytecode.Iload, 0)
			a.TableSwitch(0, []bytecode.Label{c0, c1}, def)
			a.Bind(c0)
			a.Op(bytecode.Iconst0)
			a.Op(bytecode.Ireturn)
			a.Bind(c1)
			a.Op(bytecode.Iconst1)
			a.Op(bytecode.Ireturn)
			a.Bind(def)
			a.Op(bytecode.IconstM1)
			a.Op(bytecode.Ireturn)
		}},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			cf := buildMethod(t, c.desc, c.maxStack, 6, c.emit)
			if err := Class(cf); err != nil {
				t.Fatalf("verifier rejected %s: %v", name, err)
			}
		})
	}
}

// TestHandlersVerify checks exception-handler frames: handler entry sees
// the thrown exception and the merged locals of the protected range.
func TestHandlersVerify(t *testing.T) {
	b := classfile.NewBuilder("T", "java/lang/Object", classfile.AccPublic)
	m := b.AddMethod(classfile.AccPublic|classfile.AccStatic, "t", "()I")
	a := bytecode.NewAssembler()
	start, end, handler := a.NewLabel(), a.NewLabel(), a.NewLabel()
	a.Bind(start)
	a.Op(bytecode.Iconst1)
	a.Local(bytecode.Istore, 0)
	a.Bind(end)
	a.Local(bytecode.Iload, 0)
	a.Op(bytecode.Ireturn)
	a.Bind(handler)
	a.Op(bytecode.Pop) // the exception
	a.Op(bytecode.Iconst2)
	a.Op(bytecode.Ireturn)
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	attr := &classfile.CodeAttr{MaxStack: 1, MaxLocals: 1, Code: code}
	attr.Handlers = []classfile.ExceptionHandler{{
		StartPC: uint16(a.OffsetOf(start)), EndPC: uint16(a.OffsetOf(end)),
		HandlerPC: uint16(a.OffsetOf(handler)), CatchType: b.Class("java/lang/Exception"),
	}}
	b.AttachCode(m, attr)
	cf, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := Class(cf); err != nil {
		t.Fatalf("handler method rejected: %v", err)
	}
}

// TestStrippedCorporaStillVerifyAfterStrip guards the renumbering: strip
// rewrites all constant-pool operands, which must keep code verifiable.
func TestStrippedCorporaStillVerifyAfterStrip(t *testing.T) {
	p, err := synth.ProfileByName("icebrowserbean")
	if err != nil {
		t.Fatal(err)
	}
	cfs, err := synth.Generate(p, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if err := strip.ApplyAll(cfs, strip.Options{}); err != nil {
		t.Fatal(err)
	}
	for _, cf := range cfs {
		if err := Class(cf); err != nil {
			t.Fatal(err)
		}
	}
}

// TestKitchenSinkMethod verifies a single method exercising the opcode
// arms the generators rarely emit: monitors, casts, multianewarray, every
// dup/swap form, float and double comparisons, conversions, and athrow.
func TestKitchenSinkMethod(t *testing.T) {
	b := classfile.NewBuilder("K", "java/lang/Object", classfile.AccPublic)
	obj := b.Class("java/lang/Object")
	arr2 := b.Class("[[I")
	exc := b.Class("java/lang/Exception")
	_ = exc
	m := b.AddMethod(classfile.AccPublic|classfile.AccStatic, "k", "(Ljava/lang/Object;FD)V")
	a := bytecode.NewAssembler()

	// checkcast / instanceof / monitors / ifnull.
	skip := a.NewLabel()
	a.Local(bytecode.Aload, 0)
	a.CP(bytecode.Checkcast, obj)
	a.Op(bytecode.Dup)
	a.Op(bytecode.Monitorenter)
	a.Local(bytecode.Aload, 0)
	a.Op(bytecode.Monitorexit)
	a.CP(bytecode.Instanceof, obj)
	a.Op(bytecode.Pop)
	a.Local(bytecode.Aload, 0)
	a.Branch(bytecode.Ifnull, skip)
	a.Bind(skip)

	// multianewarray and aaload.
	a.Op(bytecode.Iconst2)
	a.Op(bytecode.Iconst3)
	a.MultiANewArray(arr2, 2)
	a.Op(bytecode.Iconst0)
	a.Op(bytecode.Aaload)
	a.Op(bytecode.Pop)

	// Float and double compares, negation, remainder, conversions.
	a.Local(bytecode.Fload, 1)
	a.Op(bytecode.Fneg)
	a.Op(bytecode.Fconst2)
	a.Op(bytecode.Frem)
	a.Local(bytecode.Fload, 1)
	a.Op(bytecode.Fcmpg)
	a.Op(bytecode.Pop)
	a.Local(bytecode.Dload, 2)
	a.Op(bytecode.Dneg)
	a.Local(bytecode.Dload, 2)
	a.Op(bytecode.Dcmpl)
	a.Op(bytecode.Pop)
	a.Local(bytecode.Fload, 1)
	a.Op(bytecode.F2l)
	a.Op(bytecode.L2d)
	a.Op(bytecode.D2f)
	a.Op(bytecode.F2i)
	a.Op(bytecode.I2b)
	a.Op(bytecode.I2c)
	a.Op(bytecode.I2s)
	a.Op(bytecode.Ineg)
	a.Op(bytecode.Pop)

	// Shifts, lcmp, iushr/lushr.
	a.Op(bytecode.Lconst1)
	a.Op(bytecode.Iconst3)
	a.Op(bytecode.Lshl)
	a.Op(bytecode.Lconst0)
	a.Op(bytecode.Lcmp)
	a.Op(bytecode.Iconst1)
	a.Op(bytecode.Iushr)
	a.Op(bytecode.Pop)
	a.Op(bytecode.Lconst1)
	a.Op(bytecode.Iconst2)
	a.Op(bytecode.Lushr)
	a.Op(bytecode.Pop2)

	// Dup / swap family on category-1 values.
	a.Op(bytecode.Iconst1)
	a.Op(bytecode.Iconst2)
	a.Op(bytecode.Swap)
	a.Op(bytecode.DupX1)
	a.Op(bytecode.Pop)
	a.Op(bytecode.Iconst3)
	a.Op(bytecode.DupX2)
	a.Op(bytecode.Pop)
	a.Op(bytecode.Pop)
	a.Op(bytecode.Pop)
	a.Op(bytecode.Pop)
	a.Op(bytecode.Iconst4)
	a.Op(bytecode.Iconst5)
	a.Op(bytecode.Dup2)
	a.Op(bytecode.Pop2)
	a.Op(bytecode.Iconst0)
	a.Op(bytecode.Dup2X1)
	a.Op(bytecode.Pop)
	a.Op(bytecode.Pop2)
	a.Op(bytecode.Pop2)
	a.Op(bytecode.Lconst0)
	a.Op(bytecode.Lconst1)
	a.Op(bytecode.Dup2X2)
	a.Op(bytecode.Pop2)
	a.Op(bytecode.Pop2)
	a.Op(bytecode.Pop2)

	// Long/double array element ops.
	a.Op(bytecode.Iconst2)
	a.NewArray(11) // long[]
	a.Op(bytecode.Dup)
	a.Op(bytecode.Iconst0)
	a.Op(bytecode.Lconst1)
	a.Op(bytecode.Lastore)
	a.Op(bytecode.Iconst0)
	a.Op(bytecode.Laload)
	a.Op(bytecode.Pop2)
	a.Op(bytecode.Iconst2)
	a.NewArray(7) // double[]
	a.Op(bytecode.Dup)
	a.Op(bytecode.Iconst0)
	a.Op(bytecode.Dconst1)
	a.Op(bytecode.Dastore)
	a.Op(bytecode.Iconst1)
	a.Op(bytecode.Daload)
	a.Op(bytecode.Pop2)
	a.Op(bytecode.Iconst1)
	a.NewArray(6) // float[]
	a.Op(bytecode.Iconst0)
	a.Op(bytecode.Faload)
	a.Op(bytecode.Pop)

	// athrow terminates this path; unreachable code after is fine because
	// nothing flows into it.
	a.CP(bytecode.New, exc)
	a.Op(bytecode.Athrow)

	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	b.AttachCode(m, &classfile.CodeAttr{MaxStack: 10, MaxLocals: 4, Code: code})
	cf, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := Class(cf); err != nil {
		t.Fatalf("kitchen sink rejected: %v", err)
	}
}

func TestMoreRejections(t *testing.T) {
	cases := map[string]func(b *classfile.Builder, a *bytecode.Assembler){
		"swap long": func(b *classfile.Builder, a *bytecode.Assembler) {
			a.Op(bytecode.Lconst0)
			a.Op(bytecode.Swap)
			a.Op(bytecode.Return)
		},
		"pop2 split pair": func(b *classfile.Builder, a *bytecode.Assembler) {
			a.Op(bytecode.Iconst1)
			a.Op(bytecode.Lconst0)
			a.Op(bytecode.Pop) // pops long2: invalid
			a.Op(bytecode.Return)
		},
		"monitorenter int": func(b *classfile.Builder, a *bytecode.Assembler) {
			a.Op(bytecode.Iconst1)
			a.Op(bytecode.Monitorenter)
			a.Op(bytecode.Return)
		},
		"athrow int": func(b *classfile.Builder, a *bytecode.Assembler) {
			a.Op(bytecode.Iconst1)
			a.Op(bytecode.Athrow)
		},
		"newarray bad type": func(b *classfile.Builder, a *bytecode.Assembler) {
			a.Op(bytecode.Iconst1)
			a.NewArray(3)
			a.Op(bytecode.Pop)
			a.Op(bytecode.Return)
		},
		"lshl wrong order": func(b *classfile.Builder, a *bytecode.Assembler) {
			a.Op(bytecode.Iconst1)
			a.Op(bytecode.Lconst1)
			a.Op(bytecode.Lshl) // shift amount must be on top
			a.Op(bytecode.Pop2)
			a.Op(bytecode.Return)
		},
		"iinc on float": func(b *classfile.Builder, a *bytecode.Assembler) {
			a.Op(bytecode.Fconst0)
			a.Local(bytecode.Fstore, 1)
			a.Iinc(1, 1)
			a.Op(bytecode.Return)
		},
		"invokestatic missing args": func(b *classfile.Builder, a *bytecode.Assembler) {
			a.CP(bytecode.Invokestatic, b.Methodref("java/lang/Math", "max", "(II)I"))
			a.Op(bytecode.Pop)
			a.Op(bytecode.Return)
		},
		"receiver wrong type": func(b *classfile.Builder, a *bytecode.Assembler) {
			a.Op(bytecode.Iconst1)
			a.CP(bytecode.Invokevirtual, b.Methodref("java/lang/Object", "hashCode", "()I"))
			a.Op(bytecode.Pop)
			a.Op(bytecode.Return)
		},
	}
	for name, emit := range cases {
		t.Run(name, func(t *testing.T) {
			cf := buildMethod(t, "()V", 4, 4, emit)
			if err := Class(cf); err == nil {
				t.Fatalf("verifier accepted %s", name)
			}
		})
	}
}
