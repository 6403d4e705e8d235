package power

import (
	"math/big"
	"slices"
	"testing"
	"time"
)

// refLedger integrates a meter's total draw over time in arbitrary
// precision, independently of the meter's per-component records.
type refLedger struct {
	draws []int64 // µW per component
	e     big.Int // µW·ns
	now   time.Duration
}

// advance books the current total draw up to now.
func (r *refLedger) advance(now time.Duration) {
	var total int64
	for _, uw := range r.draws {
		total += uw
	}
	var p big.Int
	r.e.Add(&r.e, p.Mul(big.NewInt(total), big.NewInt(int64(now-r.now))))
	r.now = now
}

func (e uwns) big() *big.Int {
	b := new(big.Int).SetUint64(e.hi)
	return b.Lsh(b, 64).Add(b, new(big.Int).SetUint64(e.lo))
}

// checkLedger fails unless m's energy up to now is exactly the sum of its
// components' and equals ref's integral of the total draw.
func checkLedger(t *testing.T, m *Meter, ref *refLedger, now time.Duration) {
	t.Helper()
	ref.advance(now)
	total, sum := m.energy(now), sumUWns(m, now)
	if total != sum {
		t.Fatalf("at %v: Energy %v µW·ns, components' sum %v µW·ns", now, total.big(), sum.big())
	}
	if total.big().Cmp(&ref.e) != 0 {
		t.Fatalf("at %v: Energy %v µW·ns, total draw integrated %v µW·ns", now, total.big(), &ref.e)
	}
}

// FuzzMeterExact drives two meters through one random sequence of sets,
// co-timed pairs of updates and reads; the second meter applies each
// co-timed pair in the other order. The two must read the same energies,
// per-component energies and draws, bit for bit. Each meter's Energy is
// exactly the sum of its components' µW·ns, and equals its total draw
// integrated over time by an arbitrary-precision reference. Draws reach
// ~5e8 µW and steps ~70 s, so the 128-bit sums carry into their high
// word.
func FuzzMeterExact(f *testing.F) {
	f.Add([]byte{0x00, 10, 0x21, 0x11, 0, 0x43, 0x02, 5, 0, 0x73, 200, 0xff, 0x02, 0, 0})
	f.Add([]byte{0x70, 255, 0xe0, 0x71, 255, 0xe5, 0x72, 255, 0, 0x73, 255, 0, 0x70, 255, 0xff, 0x02, 0, 0})
	f.Add([]byte{0x01, 0, 0x12, 0x01, 0, 0x34, 0x01, 0, 0x56, 0x02, 0, 0, 0x03, 0, 1})
	// Two steps whose low words carry into the high word.
	f.Add([]byte("00\xe0xx\xe0x\xe50"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		const n = 4
		names := []string{"c0", "c1", "c2", "c3"}
		a, b := NewMeter(0, names), NewMeter(0, names)
		ref := &refLedger{draws: make([]int64, n)}
		now := time.Duration(0)
		set := func(m *Meter, c int, uw int64) { m.Set(Component(c), uw, now) }
		for ; len(ops) >= 3; ops = ops[3:] {
			op, x, y := ops[0], ops[1], ops[2]
			// The high nibble scales the step: from x ns to x·2^28 ns.
			dt := time.Duration(x) << (4 * (op >> 4 & 7))
			ref.advance(now + dt)
			now += dt
			draw := int64(x) << (3 * (y >> 5))
			c := int(y) % n
			switch op & 3 {
			case 0:
				set(a, c, draw)
				set(b, c, draw)
				ref.draws[c] = draw
			case 1:
				c2 := (c + 1 + int(y>>2)%(n-1)) % n
				draw2 := draw/3 + 1
				set(a, c, draw)
				set(a, c2, draw2)
				set(b, c2, draw2)
				set(b, c, draw)
				ref.draws[c], ref.draws[c2] = draw, draw2
			case 2:
				checkSame(t, a, b, now)
			case 3:
				set(a, c, 0)
				set(b, c, 0)
				ref.draws[c] = 0
			}
		}
		checkSame(t, a, b, now)
		checkLedger(t, a, ref, now)
		checkLedger(t, b, ref, now)
	})
}

// checkSame fails unless a and b read the same at now, bit for bit.
func checkSame(t *testing.T, a, b *Meter, now time.Duration) {
	t.Helper()
	if ea, eb := a.Energy(now), b.Energy(now); ea != eb {
		t.Fatalf("at %v: Energy %v vs %v", now, ea, eb)
	}
	if pa, pb := a.Instant(now), b.Instant(now); pa != pb {
		t.Fatalf("at %v: Instant %v vs %v", now, pa, pb)
	}
	if ba, bb := a.EnergyBreakdown(now), b.EnergyBreakdown(now); !slices.Equal(ba, bb) {
		t.Fatalf("at %v: EnergyBreakdown %v vs %v", now, ba, bb)
	}
	for i := range a.comps {
		if ua, ub := a.comps[i].uw, b.comps[i].uw; ua != ub {
			t.Fatalf("at %v: component %d draws %d vs %d µW", now, i, ua, ub)
		}
	}
}
