package sim

import (
	"math"
	"math/rand/v2"
)

// RNG is a deterministic random source. Experiments derive one named
// stream per consumer (measurement noise, workload offsets, seek
// distances, …) so that adding a consumer never perturbs the draws seen
// by existing ones.
//
// An RNG is one heap object: it holds its PCG state and the rand.Rand
// over it inline, and r's source points at pcg. It must therefore never
// be copied (go vet's copylocks check flags a copy); share *RNG.
type RNG struct {
	_   noCopy
	pcg rand.PCG
	r   rand.Rand
}

// noCopy makes go vet report any copy of the struct that holds it.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// newRNG returns a stream seeded with the PCG words (s1, s2).
func newRNG(s1, s2 uint64) *RNG {
	g := &RNG{}
	g.pcg.Seed(s1, s2)
	g.r = *rand.New(&g.pcg)
	return g
}

// NewRNG returns a root stream for the given seed.
func NewRNG(seed uint64) *RNG { return newRNG(seed, splitmix64(seed)) }

// Stream derives an independent child stream keyed by name. The same
// (seed, name) pair always yields the same sequence. The name is keyed
// by its 64-bit FNV-1a hash.
func (g *RNG) Stream(name string) *RNG {
	k := fnv1a(name)
	a := g.r.Uint64() // fold in parent position once, at derivation time
	return newRNG(a^k, splitmix64(k))
}

// fnv1a is the 64-bit FNV-1a hash of s, as hash/fnv's New64a computes
// it, without that package's heap-allocated hasher.
func fnv1a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// Float64 returns a uniform draw in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Uint64 returns a uniform 64-bit draw.
func (g *RNG) Uint64() uint64 { return g.r.Uint64() }

// Int64N returns a uniform draw in [0, n). It panics if n <= 0.
func (g *RNG) Int64N(n int64) int64 { return g.r.Int64N(n) }

// IntN returns a uniform draw in [0, n). It panics if n <= 0.
func (g *RNG) IntN(n int) int { return g.r.IntN(n) }

// Gaussian returns a normal draw with the given mean and standard
// deviation.
func (g *RNG) Gaussian(mean, stddev float64) float64 {
	return mean + stddev*g.r.NormFloat64()
}

// Exponential returns an exponential draw with the given mean.
func (g *RNG) Exponential(mean float64) float64 {
	u := g.r.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -mean * math.Log(1-u)
}

// splitmix64 is the standard splitmix64 finalizer, used to expand one
// 64-bit seed into a second PCG word.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
