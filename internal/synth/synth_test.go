package synth

import (
	"bytes"
	"testing"

	"classpack/internal/bytecode"
	"classpack/internal/classfile"
	"classpack/internal/core"
	"classpack/internal/strip"
)

func genSmall(t testing.TB, name string) []*classfile.ClassFile {
	t.Helper()
	p, err := ProfileByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cfs, err := GenerateStripped(p, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfs) == 0 {
		t.Fatal("empty corpus")
	}
	return cfs
}

func TestGeneratedClassesAreValid(t *testing.T) {
	for _, name := range []string{"Hanoi", "222_mpegaudio", "javafig_dashO", "213_javac"} {
		t.Run(name, func(t *testing.T) {
			for _, cf := range genSmall(t, name) {
				if err := classfile.Verify(cf); err != nil {
					t.Fatalf("%s: %v", cf.ThisClassName(), err)
				}
				for mi := range cf.Methods {
					code := classfile.CodeOf(&cf.Methods[mi])
					if code == nil {
						continue
					}
					if err := bytecode.Check(code.Code); err != nil {
						t.Fatalf("%s.%s: %v", cf.ThisClassName(),
							cf.MemberName(&cf.Methods[mi]), err)
					}
				}
			}
		})
	}
}

func TestGeneratedClassesRoundTripClassfile(t *testing.T) {
	for _, cf := range genSmall(t, "202_jess") {
		data, err := classfile.Write(cf)
		if err != nil {
			t.Fatal(err)
		}
		cf2, err := classfile.Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", cf.ThisClassName(), err)
		}
		data2, err := classfile.Write(cf2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, data2) {
			t.Fatalf("%s: parse∘write not identity", cf.ThisClassName())
		}
	}
}

func TestGeneratedCorpusPacksRoundTrip(t *testing.T) {
	// End-to-end: a generated corpus survives pack/unpack byte-for-byte.
	cfs := genSmall(t, "213_javac")
	want := make([][]byte, len(cfs))
	for i, cf := range cfs {
		data, err := classfile.Write(cf)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = data
	}
	packed, err := core.Pack(cfs, core.DefaultOptions())
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	var back []*classfile.ClassFile
	err = core.UnpackStreamOpts(packed, core.UnpackOpts{}, func(cf *classfile.ClassFile) error {
		back = append(back, cf)
		return nil
	})
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	for i, cf := range back {
		got, err := classfile.Write(cf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("class %d (%s) differs after round trip", i, cf.ThisClassName())
		}
	}
	total := 0
	for _, d := range want {
		total += len(d)
	}
	if len(packed) >= total/2 {
		t.Errorf("packed %d bytes vs %d raw: less than 2x compression", len(packed), total)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := genSmall(t, "Hanoi")
	b := genSmall(t, "Hanoi")
	if len(a) != len(b) {
		t.Fatalf("class counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		da, _ := classfile.Write(a[i])
		db, _ := classfile.Write(b[i])
		if !bytes.Equal(da, db) {
			t.Fatalf("class %d differs between runs", i)
		}
	}
}

func TestGenerateHitsTarget(t *testing.T) {
	p, _ := ProfileByName("Hanoi")
	scale := 0.5
	cfs, err := GenerateStripped(p, scale)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, cf := range cfs {
		data, _ := classfile.Write(cf)
		total += len(data)
	}
	target := int(float64(p.TargetKB) * 1024 * scale)
	if total < target || total > target*2 {
		t.Fatalf("total %d not within [target, 2*target] for target %d", total, target)
	}
}

func TestObfuscatedProfileUsesShortNames(t *testing.T) {
	cfs := genSmall(t, "Hanoi_jax")
	long := 0
	total := 0
	for _, cf := range cfs {
		for mi := range cf.Methods {
			name := cf.MemberName(&cf.Methods[mi])
			if name == "<init>" || name == "run" {
				continue
			}
			total++
			if len(name) > 4 {
				long++
			}
		}
	}
	if total > 0 && long*4 > total {
		t.Fatalf("%d/%d obfuscated method names are long", long, total)
	}
}

func TestNumericProfileHasIntTables(t *testing.T) {
	cfs := genSmall(t, "222_mpegaudio")
	stores := 0
	for _, cf := range cfs {
		for mi := range cf.Methods {
			code := classfile.CodeOf(&cf.Methods[mi])
			if code == nil {
				continue
			}
			insns, err := bytecode.Decode(code.Code)
			if err != nil {
				t.Fatal(err)
			}
			for i := range insns {
				if insns[i].Op == bytecode.Iastore {
					stores++
				}
			}
		}
	}
	if stores < 50 {
		t.Fatalf("only %d iastore instructions; numeric tables missing", stores)
	}
}

func TestStripIdempotentOnCorpus(t *testing.T) {
	for _, cf := range genSmall(t, "icebrowserbean") {
		before, _ := classfile.Write(cf)
		if err := strip.Apply(cf, strip.Options{}); err != nil {
			t.Fatal(err)
		}
		after, _ := classfile.Write(cf)
		if !bytes.Equal(before, after) {
			t.Fatalf("%s: strip not idempotent on generated corpus", cf.ThisClassName())
		}
	}
}

func TestProfileLookup(t *testing.T) {
	if len(Profiles()) != 19 {
		t.Fatalf("got %d profiles, want 19", len(Profiles()))
	}
	for _, p := range Profiles() {
		if Description(p.Name) == "" {
			t.Errorf("no description for %s", p.Name)
		}
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Error("unknown profile accepted")
	}
}

func TestUnstrippedCarriesDebugInfo(t *testing.T) {
	p, _ := ProfileByName("Hanoi")
	cfs, err := Generate(p, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	unstripped, stripped := 0, 0
	sawLNT := false
	for _, cf := range cfs {
		if err := classfile.Verify(cf); err != nil {
			t.Fatalf("%s: %v", cf.ThisClassName(), err)
		}
		data, err := classfile.Write(cf)
		if err != nil {
			t.Fatal(err)
		}
		unstripped += len(data)
		for mi := range cf.Methods {
			if code := classfile.CodeOf(&cf.Methods[mi]); code != nil {
				for _, a := range code.Attrs {
					if _, ok := a.(*classfile.LineNumberTableAttr); ok {
						sawLNT = true
					}
				}
			}
		}
		if err := strip.Apply(cf, strip.Options{}); err != nil {
			t.Fatal(err)
		}
		data, err = classfile.Write(cf)
		if err != nil {
			t.Fatal(err)
		}
		stripped += len(data)
	}
	if !sawLNT {
		t.Fatal("no LineNumberTable in unstripped output")
	}
	// §2: stripping typically gives ~20% improvement; require a clear gap.
	if stripped >= unstripped*95/100 {
		t.Fatalf("stripping saved too little: %d -> %d", unstripped, stripped)
	}
}

func TestHanoiCorporaCarryCompilerOutput(t *testing.T) {
	cfs := genSmall(t, "Hanoi")
	found := map[string]bool{}
	for _, cf := range cfs {
		found[cf.ThisClassName()] = true
	}
	for _, want := range []string{"hanoi/HanoiMain", "hanoi/Solver", "hanoi/Stats", "hanoi/Peg"} {
		if !found[want] {
			t.Errorf("Hanoi corpus missing seeded class %s", want)
		}
	}
	// Non-Hanoi corpora do not carry the seed.
	for _, cf := range genSmall(t, "209_db") {
		if cf.ThisClassName() == "hanoi/Solver" {
			t.Fatal("seed leaked into 209_db")
		}
	}
}
