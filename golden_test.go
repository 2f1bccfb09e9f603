package classpack

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenDir holds committed archives of every version. The library no
// longer writes version 1, so those bytes are what pins the legacy
// layout for the reader; the version-2 and version-3 archives pin what
// the writer emits (see testdata/golden/README.md).
const goldenDir = "testdata/golden"

// goldenV1 loads a committed version-1 archive and checks its bytes
// against the digest recorded in SHA256SUMS.
func goldenV1(t testing.TB, name string) []byte {
	t.Helper()
	arc := goldenArchive(t, name)
	if arc[4] != 1 {
		t.Fatalf("%s: version %d, want 1", name, arc[4])
	}
	return arc
}

// goldenArchive loads a committed archive and checks its bytes against
// the digest recorded in SHA256SUMS.
func goldenArchive(t testing.TB, name string) []byte {
	t.Helper()
	arc, err := os.ReadFile(filepath.Join(goldenDir, name))
	if err != nil {
		t.Fatal(err)
	}
	sums := readDigestList(t, "SHA256SUMS")
	want, ok := sums[name]
	if !ok {
		t.Fatalf("%s is not listed in SHA256SUMS", name)
	}
	if got := sha256.Sum256(arc); hex.EncodeToString(got[:]) != want {
		t.Fatalf("%s: sha256 %x, pinned %s", name, got, want)
	}
	return arc
}

// checkGoldenClasses fails unless files are exactly the classes pinned
// for the named golden corpus in <corpus>.classes: the same names in the
// same order, each with the recorded SHA-256. Every golden archive of a
// corpus decodes to these classes, whatever its version.
func checkGoldenClasses(t testing.TB, corpus string, files []File) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(goldenDir, corpus+".classes"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(files) != len(lines) {
		t.Fatalf("%s: decoded %d classes, pinned %d", corpus, len(files), len(lines))
	}
	for i, line := range lines {
		sum, class, _ := strings.Cut(line, "  ")
		got := sha256.Sum256(files[i].Data)
		if files[i].Name != class || hex.EncodeToString(got[:]) != sum {
			t.Fatalf("%s: class %d is %s sha256 %x, pinned %s %s", corpus, i, files[i].Name, got, class, sum)
		}
	}
}

// readDigestList parses a sha256sum-format file of the golden directory
// into a map from file name to hex digest.
func readDigestList(t testing.TB, list string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(goldenDir, list))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		if sum, name, ok := strings.Cut(sc.Text(), "  "); ok {
			out[name] = sum
		}
	}
	return out
}
