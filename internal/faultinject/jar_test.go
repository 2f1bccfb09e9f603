package faultinject

import (
	"archive/zip"
	"bytes"
	"io"
	"testing"
)

// TestJarBombInflates pins that the bomb is what it claims: a small jar
// whose one member really inflates to the stated size and passes the
// zip reader's CRC and length checks.
func TestJarBombInflates(t *testing.T) {
	jar := JarBomb("Bomb.class", 8)
	if len(jar) > 16<<10 {
		t.Fatalf("8 MiB bomb is %d bytes", len(jar))
	}
	zr, err := zip.NewReader(bytes.NewReader(jar), int64(len(jar)))
	if err != nil {
		t.Fatal(err)
	}
	r, err := zr.File[0].Open()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	n, err := io.Copy(io.Discard, r)
	if err != nil {
		t.Fatal(err)
	}
	if n != 8<<20 {
		t.Fatalf("bomb inflated to %d bytes, want %d", n, 8<<20)
	}
}
