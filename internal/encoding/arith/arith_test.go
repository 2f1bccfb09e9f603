package arith

import (
	"math"
	"math/rand"
	"testing"
)

func roundTrip(t *testing.T, n int, syms []int) []byte {
	t.Helper()
	buf, err := EncodeAll(n, syms)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeAll(n, buf, len(syms))
	if err != nil {
		t.Fatal(err)
	}
	for i := range syms {
		if got[i] != syms[i] {
			t.Fatalf("symbol %d: got %d, want %d", i, got[i], syms[i])
		}
	}
	return buf
}

func TestRoundTripSmall(t *testing.T) {
	roundTrip(t, 2, []int{0, 1, 0, 0, 1, 1, 1, 0})
	roundTrip(t, 1, []int{0, 0, 0})
	roundTrip(t, 5, nil)
	roundTrip(t, 3, []int{2})
}

func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(500)
		syms := make([]int, rng.Intn(5000))
		for i := range syms {
			syms[i] = rng.Intn(n)
		}
		roundTrip(t, n, syms)
	}
}

func TestRoundTripSkewed(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	syms := make([]int, 50000)
	for i := range syms {
		s := int(rng.ExpFloat64() * 3)
		if s > 255 {
			s = 255
		}
		syms[i] = s
	}
	buf := roundTrip(t, 256, syms)
	// Adaptive coding of a skewed stream must land well under 8 bits/sym
	// and near the empirical entropy.
	counts := make([]float64, 256)
	for _, s := range syms {
		counts[s]++
	}
	entropy := 0.0
	for _, c := range counts {
		if c > 0 {
			p := c / float64(len(syms))
			entropy -= p * math.Log2(p)
		}
	}
	gotBits := float64(len(buf) * 8)
	idealBits := entropy * float64(len(syms))
	if gotBits > idealBits*1.1+1024 {
		t.Fatalf("coded %f bits, entropy bound %f", gotBits, idealBits)
	}
}

func TestEncodeRange(t *testing.T) {
	e := NewEncoder(4)
	if err := e.Encode(4); err == nil {
		t.Fatal("out-of-range symbol accepted")
	}
	if err := e.Encode(-1); err == nil {
		t.Fatal("negative symbol accepted")
	}
}

func TestModelRescale(t *testing.T) {
	// Enough updates to force several rescales; coding must stay correct.
	syms := make([]int, maxTotal/increment*4)
	for i := range syms {
		syms[i] = i % 3
	}
	roundTrip(t, 3, syms)
}

// TestBytesMatchesInts pins the byte-alphabet entry points to the []int
// ones: the same stream must code to the same bits and decode back.
func TestBytesMatchesInts(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{0, 1, 7, 1000, maxTotal / increment * 3} {
		raw := make([]byte, n)
		syms := make([]int, n)
		for i := range raw {
			raw[i] = byte(rng.ExpFloat64() * 20)
			syms[i] = int(raw[i])
		}
		want, err := EncodeAll(256, syms)
		if err != nil {
			t.Fatal(err)
		}
		got := EncodeBytes(raw)
		if string(got) != string(want) {
			t.Fatalf("n=%d: EncodeBytes differs from EncodeAll", n)
		}
		back, err := DecodeBytes(got, n)
		if err != nil {
			t.Fatal(err)
		}
		if string(back) != string(raw) {
			t.Fatalf("n=%d: DecodeBytes did not round-trip", n)
		}
	}
}
