package sim

import (
	"hash/fnv"
	"math/rand/v2"
	"testing"
)

// TestStreamGolden pins the first draws of a few derived streams, and
// of a second derivation of the same name from one root, so a change to
// how names are hashed or streams are seeded cannot pass unnoticed.
func TestStreamGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		want [3]uint64
	}{
		{"", [3]uint64{0xd39ef2240c809fd9, 0x41e60d503f102f79, 0x302b30b998b46cb}},
		{"noise", [3]uint64{0x93f8542435cf0d4d, 0xec6f3f8a6f84db61, 0xf9a699526295a427}},
		{"ssd/SSD2#00000", [3]uint64{0xd6b2efbac978b9, 0x675880efeb088a24, 0x1e7d7bab1360a209}},
		{"arrivals00007", [3]uint64{0x5173cdc02e326b4f, 0xe83b9341d8eb06b7, 0x56afb2f09e026f}},
	} {
		g := NewRNG(42).Stream(c.name)
		if got := [3]uint64{g.Uint64(), g.Uint64(), g.Uint64()}; got != c.want {
			t.Errorf("NewRNG(42).Stream(%q) draws %#x, want %#x", c.name, got, c.want)
		}
	}
	root := NewRNG(42)
	root.Stream("noise")
	g := root.Stream("noise")
	if got, want := [2]uint64{g.Uint64(), g.Uint64()}, [2]uint64{0x94dd58fc4577fbe0, 0x3bee81c9414bd1c9}; got != want {
		t.Errorf("second Stream(\"noise\") of NewRNG(42) draws %#x, want %#x", got, want)
	}
	if got, want := NewRNG(7).Uint64(), uint64(0x191eaefeaafdbc95); got != want {
		t.Errorf("NewRNG(7) draws %#x, want %#x", got, want)
	}
}

// TestStreamAllocatesOnce: an RNG holds its generator inline, so a
// derivation is one heap object.
func TestStreamAllocatesOnce(t *testing.T) {
	root := NewRNG(1)
	if n := testing.AllocsPerRun(100, func() { root.Stream("ssd/SSD2#00000") }); n != 1 {
		t.Fatalf("Stream allocates %.0f times, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { NewRNG(1) }); n != 1 {
		t.Fatalf("NewRNG allocates %.0f times, want 1", n)
	}
}

// refStream is Stream built from the standard library's parts: the
// hash/fnv FNV-1a hasher and a rand.Rand over a fresh rand.PCG.
func refStream(parent *rand.Rand, name string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	k := h.Sum64()
	return rand.New(rand.NewPCG(parent.Uint64()^k, splitmix64(k)))
}

// FuzzStreamDerivation checks NewRNG and two successive Stream
// derivations against refStream, draw for draw, with parent draws
// between them.
func FuzzStreamDerivation(f *testing.F) {
	f.Add(uint64(42), "noise", "ssd/SSD2#00000", uint8(3))
	f.Add(uint64(0), "", "", uint8(0))
	f.Add(uint64(1<<63), "arrivals00007", "lane99999", uint8(17))
	f.Fuzz(func(t *testing.T, seed uint64, a, b string, between uint8) {
		g := NewRNG(seed)
		ref := rand.New(rand.NewPCG(seed, splitmix64(seed)))
		ga, ra := g.Stream(a), refStream(ref, a)
		for i := 0; i < int(between%32); i++ {
			if x, y := g.Uint64(), ref.Uint64(); x != y {
				t.Fatalf("root draw %d: %#x, reference %#x", i, x, y)
			}
		}
		gb, rb := ga.Stream(b), refStream(ra, b)
		for i := 0; i < 4; i++ {
			if x, y := ga.Uint64(), ra.Uint64(); x != y {
				t.Fatalf("Stream(%q) draw %d: %#x, reference %#x", a, i, x, y)
			}
			if x, y := gb.Float64(), rb.Float64(); x != y {
				t.Fatalf("Stream(%q).Stream(%q) draw %d: %v, reference %v", a, b, i, x, y)
			}
		}
	})
}
