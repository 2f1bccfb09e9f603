package classpack

import (
	"bytes"
	"strings"
	"testing"

	"classpack/internal/archive"
	"classpack/internal/classfile"
)

// TestNegativeConcurrencyRejected pins the API contract: a negative
// worker bound is an input error with a self-explanatory message, not
// something the worker pool quietly reinterprets as "all cores".
func TestNegativeConcurrencyRejected(t *testing.T) {
	files := sample(t)
	opts := DefaultOptions()
	opts.Concurrency = -1

	wantErr := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s accepted Concurrency -1", what)
		}
		if !strings.Contains(err.Error(), "Concurrency") {
			t.Fatalf("%s: error %q does not name Concurrency", what, err)
		}
	}

	_, err := Pack(files, &opts)
	wantErr("Pack", err)
	_, err = PackStats(files, &opts)
	wantErr("PackStats", err)
	_, _, err = PackJar(validJar(t, files), &opts)
	wantErr("PackJar", err)

	packed, err := Pack(files, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = UnpackOpts(packed, &Options{Concurrency: -1})
	wantErr("UnpackOpts", err)
	err = UnpackStream(bytes.NewReader(packed), func(File) error { return nil }, &Options{Concurrency: -3})
	wantErr("UnpackStream", err)

	errs := VerifyAll(files, false, -2)
	if len(errs) != len(files) {
		t.Fatalf("VerifyAll returned %d slots, want %d", len(errs), len(files))
	}
	for i, e := range errs {
		wantErr("VerifyAll slot", e)
		_ = i
	}

	// Zero and positive bounds still work.
	opts.Concurrency = 0
	if _, err := Pack(files, &opts); err != nil {
		t.Fatalf("Pack with Concurrency 0: %v", err)
	}
	if _, err := UnpackOpts(packed, &Options{Concurrency: 1}); err != nil {
		t.Fatalf("UnpackOpts with concurrency 1: %v", err)
	}
}

// validJar wraps raw class bytes into a jar, named by their class names.
func validJar(t *testing.T, files [][]byte) []byte {
	t.Helper()
	var members []archive.File
	for _, data := range files {
		cf, err := classfile.Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, archive.File{Name: cf.ThisClassName() + ".class", Data: data})
	}
	jar, err := archive.WriteJar(members)
	if err != nil {
		t.Fatal(err)
	}
	return jar
}

// TestPackJarRoundTripNonClassEntries packs a jar that mixes classes
// with resources, asserting the skipped list names exactly the
// non-class members (in jar order) and that every class payload
// round-trips byte-identically to its canonicalized (stripped) form,
// both via Unpack and via the rebuilt jar.
func TestPackJarRoundTripNonClassEntries(t *testing.T) {
	files := sample(t)
	strippedByName := make(map[string][]byte)
	var members []archive.File
	for _, data := range files {
		cf, err := classfile.Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		name := cf.ThisClassName() + ".class"
		stripped, err := Strip(data)
		if err != nil {
			t.Fatal(err)
		}
		strippedByName[name] = stripped
		members = append(members, archive.File{Name: name, Data: data})
	}
	nonClass := []archive.File{
		{Name: "META-INF/MANIFEST.MF", Data: []byte("Manifest-Version: 1.0\n")},
		{Name: "res/strings.properties", Data: []byte("hello=world\n")},
		{Name: "res/logo.png", Data: bytes.Repeat([]byte{7}, 64)},
	}
	// Interleave a resource between classes so order assertions are real.
	// A directory entry is neither a class nor a skipped member.
	mixed := append([]archive.File{{Name: "META-INF/"}, nonClass[0]}, members...)
	mixed = append(mixed, archive.File{Name: "res/"}, nonClass[1], nonClass[2])
	jar, err := archive.WriteJar(mixed)
	if err != nil {
		t.Fatal(err)
	}

	packed, skipped, err := PackJar(jar, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != len(nonClass) {
		t.Fatalf("skipped %d members, want %d: %v", len(skipped), len(nonClass), skipped)
	}
	for i, want := range []string{"META-INF/MANIFEST.MF", "res/strings.properties", "res/logo.png"} {
		if skipped[i] != want {
			t.Fatalf("skipped[%d] = %q, want %q", i, skipped[i], want)
		}
	}

	// Unpack: every class comes back byte-identical to Strip(original).
	out, err := Unpack(packed)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(files) {
		t.Fatalf("unpacked %d classes, want %d", len(out), len(files))
	}
	for _, f := range out {
		want, ok := strippedByName[f.Name]
		if !ok {
			t.Fatalf("unpacked unexpected class %s", f.Name)
		}
		if !bytes.Equal(f.Data, want) {
			t.Fatalf("%s: unpacked payload differs from stripped original", f.Name)
		}
	}

	// JarFromFiles: the rebuilt jar carries the same byte-identical
	// payloads (and, per §12, no resurrected resources).
	outJar, err := JarFromFiles(out)
	if err != nil {
		t.Fatal(err)
	}
	outMembers, err := archive.ReadJar(outJar)
	if err != nil {
		t.Fatal(err)
	}
	if len(outMembers) != len(files) {
		t.Fatalf("rebuilt jar has %d members, want %d", len(outMembers), len(files))
	}
	for _, m := range outMembers {
		want, ok := strippedByName[m.Name]
		if !ok {
			t.Fatalf("rebuilt jar has unexpected member %s", m.Name)
		}
		if !bytes.Equal(m.Data, want) {
			t.Fatalf("%s: rebuilt jar payload differs from stripped original", m.Name)
		}
	}
}
