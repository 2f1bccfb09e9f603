package core

import (
	"math/rand"
	"testing"
)

// TestUnpackNeverPanicsOnCorruptInput mutates valid archives and feeds
// random garbage to Unpack: every outcome must be a clean error or a
// (possibly wrong) decode, never a panic.
func TestUnpackNeverPanicsOnCorruptInput(t *testing.T) {
	cfs := buildTestClasses(t)
	strippedBytes(t, cfs)
	packed, err := Pack(cfs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	try := func(data []byte) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Unpack panicked on corrupt input: %v", r)
			}
		}()
		_, _ = unpackAll(data)
	}
	// Single-byte flips across the whole archive.
	for trial := 0; trial < 3000; trial++ {
		mut := append([]byte(nil), packed...)
		i := rng.Intn(len(mut))
		mut[i] ^= byte(1 + rng.Intn(255))
		try(mut)
	}
	// Truncations.
	for cut := 0; cut < len(packed); cut += 7 {
		try(packed[:cut])
	}
	// Multi-byte corruption bursts.
	for trial := 0; trial < 500; trial++ {
		mut := append([]byte(nil), packed...)
		for k := 0; k < 8; k++ {
			mut[rng.Intn(len(mut))] = byte(rng.Intn(256))
		}
		try(mut)
	}
	// Pure garbage with a valid header prefix.
	for trial := 0; trial < 500; trial++ {
		data := make([]byte, rng.Intn(256))
		rng.Read(data)
		copy(data, Magic[:])
		try(data)
	}
}
