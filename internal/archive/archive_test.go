package archive

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"classpack/internal/corrupt"
)

func sampleFiles() []File {
	rng := rand.New(rand.NewSource(2))
	var files []File
	for i := 0; i < 5; i++ {
		data := make([]byte, 2000+rng.Intn(3000))
		for j := range data {
			data[j] = byte("abcdefgh"[rng.Intn(8)]) // compressible
		}
		files = append(files, File{
			Name: strings.Repeat("p/", i) + "C.class",
			Data: data,
		})
	}
	return files
}

func TestJarRoundTrip(t *testing.T) {
	files := sampleFiles()
	jar, err := WriteJar(files)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadJar(jar)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(files) {
		t.Fatalf("got %d files, want %d", len(back), len(files))
	}
	for i := range files {
		if back[i].Name != files[i].Name || !bytes.Equal(back[i].Data, files[i].Data) {
			t.Fatalf("file %d corrupted", i)
		}
	}
}

func TestJ0rGzRoundTrip(t *testing.T) {
	files := sampleFiles()
	gz, err := WriteJ0rGz(files)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadJ0rGz(gz)
	if err != nil {
		t.Fatal(err)
	}
	for i := range files {
		if !bytes.Equal(back[i].Data, files[i].Data) {
			t.Fatalf("file %d corrupted", i)
		}
	}
}

func TestSizeOrdering(t *testing.T) {
	// For compressible shared-content files: j0r.gz < jar < stored,
	// the §2.1 observation motivating whole-archive compression.
	files := sampleFiles()
	jar, _ := WriteJar(files)
	stored, _ := WriteStored(files)
	j0rgz, _ := WriteJ0rGz(files)
	if !(len(j0rgz) < len(jar) && len(jar) < len(stored)) {
		t.Fatalf("sizes j0rgz=%d jar=%d stored=%d violate expected order",
			len(j0rgz), len(jar), len(stored))
	}
}

func TestDeterministic(t *testing.T) {
	files := sampleFiles()
	a, _ := WriteJar(files)
	b, _ := WriteJar(files)
	if !bytes.Equal(a, b) {
		t.Fatal("WriteJar is not deterministic")
	}
	c, _ := WriteJ0rGz(files)
	d, _ := WriteJ0rGz(files)
	if !bytes.Equal(c, d) {
		t.Fatal("WriteJ0rGz is not deterministic")
	}
}

func TestFlateRoundTrip(t *testing.T) {
	data := []byte(strings.Repeat("compressing java class files ", 100))
	comp, err := Flate(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) >= len(data) {
		t.Fatalf("flate did not compress: %d >= %d", len(comp), len(data))
	}
	if FlateSize(data) != len(comp) {
		t.Fatalf("FlateSize = %d, want %d", FlateSize(data), len(comp))
	}
	back, err := Inflate(comp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("inflate mismatch")
	}
}

func TestGzipWholeRoundTrip(t *testing.T) {
	data := []byte(strings.Repeat("xyz", 1000))
	gz, err := GzipWhole(data)
	if err != nil {
		t.Fatal(err)
	}
	back, err := GunzipWhole(gz)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("gzip roundtrip mismatch")
	}
}

func TestReadJarErrors(t *testing.T) {
	if _, err := ReadJar([]byte("not a zip")); err == nil {
		t.Fatal("ReadJar accepted junk")
	}
	if _, err := ReadJ0rGz([]byte("not gzip")); err == nil {
		t.Fatal("ReadJ0rGz accepted junk")
	}
}

// TestReadJarClasses pins the jar intake split: class members in jar
// order, other members' names as skipped, directory entries as
// neither, and a total inflated size over the budget refused with
// corrupt.ErrTooLarge.
func TestReadJarClasses(t *testing.T) {
	files := sampleFiles()
	mixed := []File{{Name: "META-INF/"}, {Name: "META-INF/MANIFEST.MF", Data: []byte("v\n")}, files[0], {Name: "p/"}, files[1]}
	jar, err := WriteJar(mixed)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(len(files[0].Data) + len(files[1].Data))
	classes, skipped, err := ReadJarClasses(jar, total)
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 2 || classes[0].Name != files[0].Name || !bytes.Equal(classes[1].Data, files[1].Data) {
		t.Fatalf("classes = %d members, want %s and %s", len(classes), files[0].Name, files[1].Name)
	}
	if len(skipped) != 1 || skipped[0] != "META-INF/MANIFEST.MF" {
		t.Fatalf("skipped = %q, want [META-INF/MANIFEST.MF]", skipped)
	}
	if _, _, err := ReadJarClasses(jar, total-1); !errors.Is(err, corrupt.ErrTooLarge) {
		t.Fatalf("one byte over budget: err = %v, want ErrTooLarge", err)
	}
	if _, _, err := ReadJarClasses([]byte("not a zip"), total); err == nil {
		t.Fatal("ReadJarClasses accepted junk")
	}
}
