package streams

import (
	"testing"

	"classpack/internal/corrupt"
)

// FuzzStreamsReader throws arbitrary bytes at the container parser and,
// when parsing succeeds, drains every stream through all read paths.
// Nothing may panic, and the decoded-byte budget must hold.
func FuzzStreamsReader(f *testing.F) {
	w := NewWriter()
	w.Stream("a.ints").Uint(300)
	w.Stream("a.ints").Int(-5)
	w.Stream("b.raw").Write([]byte("hello streams container"))
	for i := 0; i < 512; i++ {
		w.Stream("c.zeros").WriteByte(0) // compresses, exercising flate decode
	}
	f.Add(goldenBody(f)) // the plain layout of a real archive
	checked, err := w.FinishChecked(true, 1)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(checked)
	f.Add([]byte{0}) // the empty plain container: a zero stream count
	f.Add([]byte{0})
	f.Add([]byte{})

	const budget = int64(1) << 20
	f.Fuzz(func(t *testing.T, data []byte) {
		// The checked reader and the salvage walkers (both layouts) parse
		// the same bytes first: none may panic, and salvage damage
		// reports must name a stream.
		_, _ = NewCheckedReaderLimit(data, 1, budget)
		for _, isChecked := range []bool{true, false} {
			_, damage := NewSalvageReader(data, 1, budget, isChecked)
			for _, d := range damage {
				if d.Stream == "" {
					t.Fatalf("salvage damage without a stream name: %v", d)
				}
			}
		}
		r, err := NewReaderLimit(data, 1, budget)
		if err != nil {
			if ce, ok := corrupt.As(err); ok && ce.Stream == "" {
				t.Fatalf("corrupt error without a stream name: %v", err)
			}
			return
		}
		total := 0
		for name := range r.streams {
			s := r.Stream(name)
			total += s.Remaining()
			// Drain through every accessor; each consumes at least one
			// byte while bytes remain, so the loop terminates.
			for s.Remaining() > 0 {
				switch s.Remaining() % 4 {
				case 0:
					_, _ = s.Uint()
				case 1:
					_, _ = s.Int()
				case 2:
					_, _ = s.Raw(1)
				default:
					_, _ = s.ReadByte()
				}
			}
			if _, err := s.ReadByte(); err == nil {
				t.Fatalf("stream %s: read past end succeeded", name)
			}
			if _, err := s.Raw(-1); err == nil {
				t.Fatalf("stream %s: negative Raw succeeded", name)
			}
		}
		if int64(total) > budget {
			t.Fatalf("decoded %d bytes past the %d budget", total, budget)
		}
	})
}
