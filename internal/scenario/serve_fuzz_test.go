package scenario

import (
	"fmt"
	"testing"
	"time"

	"wattio/internal/serve"
)

// fuzzMixes are the profile mixes FuzzServeRun draws from: a single
// cohort, two cohorts with different power-state ladders, and three
// profiles including single-state devices (no governors).
var fuzzMixes = [][]string{
	{"SSD2"},
	{"SSD2", "SSD1"},
	{"SSD1", "C960", "EVO"},
	{"HDD", "SSD2"},
}

// fuzzFleet decodes FuzzServeRun's arguments into a bounded fleet
// scenario: at most 32 devices and a horizon of at most 1 s, any tier,
// churn, a rate step, fault injection and replicas. The spec carries the
// horizon as its runtime, and every scheduled time is a fraction of it
// that may reach past it; depth, batch, queue cap and chunk size, and
// budget watts, may be zero, negative or misaligned. So validation must
// reject exactly the stanzas the serving engine cannot run.
func fuzzFleet(tier, size, repl, shape uint8, horizonMs, rate, churn, rates uint16, faults, budget uint8, seed uint64) *Spec {
	h := time.Duration(100+int(horizonMs)%901) * time.Millisecond
	frac := func(tenths int) Duration { return Duration(h * time.Duration(tenths) / 10) }

	mix := fuzzMixes[int(shape)%len(fuzzMixes)]
	replicas := 1 + int(repl)%3
	f := &FleetSpec{
		Profiles: mix,
		Size:     replicas * (1 + int(size)%(32/replicas)),
		Shards:   int(size/32) % 5,
		Replicas: replicas,
		Active:   int(repl/3) % 4,
		Budget:   "max",
	}
	if shape&4 != 0 {
		f.Arrival = "uniform"
	}
	if shape&8 != 0 {
		f.Read = true
	}
	if shape&16 != 0 {
		f.Seq = true
	}
	if shape&32 != 0 {
		// The seed's top bits pick each stream-shape field, zero (the
		// default), negative and non-512-multiple values among them;
		// they are 0 in every seed below, which gives 8, 4, 16 and the
		// default chunk.
		k := int(seed >> 40)
		f.Depth = []int{8, 0, -5, 1, 3}[k%5]
		f.Batch = []int{4, 0, -1, 1, 9}[k/5%5]
		f.QueueCap = []int{16, 0, -1, 1, 2}[k/25%5]
		f.ChunkBytes = []int64{0, 4096, 1000, -512, 512}[k/125%5]
	}
	if shape&64 != 0 {
		f.ControlPeriod = Duration(50 * time.Millisecond)
	}

	switch tier % 3 {
	case 1:
		f.Meso = &MesoSpec{Enable: true}
	case 2:
		f.Meso = &MesoSpec{Enable: true, GroupMin: 2 + int(tier/3)%7, Probes: int(tier/21) % 3}
	}

	iops := float64(200 + int(rate)%4000)
	if rates&1 != 0 {
		f.Arrivals = []RateStepSpec{
			{At: 0, RateIOPS: iops},
			{At: frac(1 + int(rates>>1)%12), RateIOPS: float64(200 + int(rates>>4)%4000)},
		}
	} else {
		f.RateIOPS = iops
	}

	// Churn: an add at 0.1–1.2 h warming up to 0.2 h, and/or a remove at
	// 0.6–1.1 h, on one of the mix's cohorts.
	cohort := mix[int(churn>>12)%len(mix)]
	if churn&1 != 0 {
		f.Churn = append(f.Churn, ChurnEventSpec{
			At: frac(1 + int(churn>>6)%12), Profile: cohort,
			Add: 1 + int(churn>>2)%3, Warmup: frac(int(churn>>8) % 3),
		})
	}
	if churn&2 != 0 {
		f.Churn = append(f.Churn, ChurnEventSpec{
			At: frac(6 + int(churn>>10)%6), Profile: cohort, Remove: 1 + int(churn>>4)%2,
		})
	}

	f.FaultFrac = float64(faults%5) / 4
	if faults&8 != 0 {
		f.Faults = []FleetFault{{
			Device:  serve.InstanceName(mix[0], 0),
			Windows: []FaultWindow{{Kind: "dropout", Start: frac(2), Dur: frac(2)}},
		}}
	}

	switch budget % 4 {
	case 1:
		f.Budget = "" // the stepped curtail-and-recover default
	case 2:
		f.Budget = fmt.Sprintf("0s:%dpd", int(budget>>2)%15-3) // -3..11 W per device
	case 3:
		f.Budget = fmt.Sprintf("0s:%dpd,%v:%dpd", 4+int(budget>>2)%12, time.Duration(frac(5+3*int(budget>>6))), 4+int(budget>>5)%12)
	}
	return &Spec{
		Version: Version, Name: "fuzz", Experiment: "fleet",
		Runtime: Duration(h), Seed: seed, FaultSeed: seed ^ 1,
		Fleet: f,
	}
}

// FuzzServeRun closes the loop the other fuzzers stop short of: a
// bounded random fleet stanza that passes Validate must build a serving
// spec and run through serve.Run with no panic and no error.
func FuzzServeRun(f *testing.F) {
	// One spec per tier of the conformance matrix (pure, meso, group),
	// each with churn, a rate step, faults and replicas, under the
	// never-binding budget.
	for tier := uint8(0); tier < 3; tier++ {
		f.Add(tier+3*2, uint8(15), uint8(1), uint8(0), uint16(900), uint16(2800), uint16(0b11_0000_0111), uint16(0b1_1001), uint8(1), uint8(0), uint64(7))
	}
	// The same per tier on an HDD+SSD2 mix whose churn scales the SSD2
	// cohort under a stepped budget: 9 W per device binds, and 7 W from
	// 0.8 of the horizon is infeasible once churn has grown the cohort.
	for tier := uint8(0); tier < 3; tier++ {
		f.Add(tier+3*2, uint8(15), uint8(1), uint8(3), uint16(900), uint16(2800), uint16(0b1_1011_0000_0111), uint16(0b1_1001), uint8(1), uint8(119), uint64(7))
	}
	f.Fuzz(func(t *testing.T, tier, size, repl, shape uint8, horizonMs, rate, churn, rates uint16, faults, budget uint8, seed uint64) {
		sp := fuzzFleet(tier, size, repl, shape, horizonMs, rate, churn, rates, faults, budget, seed)
		if err := sp.Validate(); err != nil {
			return
		}
		ss, err := sp.ServeSpec(sp.Runtime.D())
		if err != nil {
			t.Fatalf("validated spec failed to build a serving spec: %v", err)
		}
		if _, err := serve.Run(ss); err != nil {
			t.Fatalf("validated spec failed to run: %v\nfleet: %+v", err, *sp.Fleet)
		}
	})
}
