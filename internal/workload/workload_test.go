package workload

import (
	"testing"
	"testing/quick"
	"time"

	"wattio/internal/device"
	"wattio/internal/sim"
)

// fakeDev is a deterministic device: every IO completes after a fixed
// service time, with unbounded internal parallelism.
type fakeDev struct {
	eng      *sim.Engine
	svc      time.Duration
	capacity int64
	submits  []device.Request
	inflight int
	maxInfl  int
}

func newFake(eng *sim.Engine, svc time.Duration) *fakeDev {
	return &fakeDev{eng: eng, svc: svc, capacity: 1 << 30}
}

func (f *fakeDev) Name() string                     { return "fake" }
func (f *fakeDev) Model() string                    { return "fake" }
func (f *fakeDev) Protocol() device.Protocol        { return device.NVMe }
func (f *fakeDev) CapacityBytes() int64             { return f.capacity }
func (f *fakeDev) InstantPower() float64            { return 1 }
func (f *fakeDev) EnergyJ() float64                 { return 0 }
func (f *fakeDev) PowerStates() []device.PowerState { return nil }
func (f *fakeDev) SetPowerState(int) error          { return device.ErrNotSupported }
func (f *fakeDev) PowerStateIndex() int             { return 0 }
func (f *fakeDev) EnterStandby() error              { return device.ErrNotSupported }
func (f *fakeDev) Wake() error                      { return device.ErrNotSupported }
func (f *fakeDev) Standby() bool                    { return false }
func (f *fakeDev) Settled() bool                    { return true }

func (f *fakeDev) Submit(r device.Request, done func()) {
	if err := r.Validate(f.capacity); err != nil {
		panic(err)
	}
	f.submits = append(f.submits, r)
	f.inflight++
	if f.inflight > f.maxInfl {
		f.maxInfl = f.inflight
	}
	f.eng.After(f.svc, func() {
		f.inflight--
		done()
	})
}

var _ device.Device = (*fakeDev)(nil)

func TestByteBoundStopsIssue(t *testing.T) {
	eng := sim.NewEngine()
	dev := newFake(eng, time.Millisecond)
	res := Run(eng, dev, Job{
		Op: device.OpRead, Pattern: Seq, BS: 4096, Depth: 4, TotalBytes: 64 * 4096,
	}, sim.NewRNG(1))
	if res.IOs != 64 {
		t.Fatalf("IOs = %d, want 64", res.IOs)
	}
	if res.Bytes != 64*4096 {
		t.Fatalf("Bytes = %d", res.Bytes)
	}
}

func TestRuntimeBoundStopsIssue(t *testing.T) {
	eng := sim.NewEngine()
	dev := newFake(eng, 10*time.Millisecond)
	res := Run(eng, dev, Job{
		Op: device.OpWrite, Pattern: Rand, BS: 4096, Depth: 1, Runtime: 95 * time.Millisecond,
	}, sim.NewRNG(1))
	// qd1 at 10ms per IO: ~10 IOs fit in 95ms (the 10th completes at
	// 100ms, issued at 90ms < deadline).
	if res.IOs < 9 || res.IOs > 11 {
		t.Fatalf("IOs = %d, want ≈ 10", res.IOs)
	}
}

func TestQueueDepthRespected(t *testing.T) {
	eng := sim.NewEngine()
	dev := newFake(eng, time.Millisecond)
	Run(eng, dev, Job{
		Op: device.OpRead, Pattern: Rand, BS: 4096, Depth: 7, TotalBytes: 100 * 4096,
	}, sim.NewRNG(1))
	if dev.maxInfl != 7 {
		t.Fatalf("max inflight = %d, want exactly the queue depth 7", dev.maxInfl)
	}
}

func TestSequentialOffsetsAdvanceAndWrap(t *testing.T) {
	eng := sim.NewEngine()
	dev := newFake(eng, time.Microsecond)
	span := int64(8 * 4096)
	Run(eng, dev, Job{
		Op: device.OpRead, Pattern: Seq, BS: 4096, Depth: 1, TotalBytes: 20 * 4096, Span: span,
	}, sim.NewRNG(1))
	for i, r := range dev.submits {
		want := int64(i%8) * 4096
		if r.Offset != want {
			t.Fatalf("submit %d offset %d, want %d (wrapping at span)", i, r.Offset, want)
		}
	}
}

func TestRandomOffsetsAlignedWithinSpan(t *testing.T) {
	eng := sim.NewEngine()
	dev := newFake(eng, time.Microsecond)
	span := int64(1 << 20)
	Run(eng, dev, Job{
		Op: device.OpWrite, Pattern: Rand, BS: 64 << 10, Depth: 4, TotalBytes: 256 * 64 << 10, Span: span,
	}, sim.NewRNG(1))
	seen := map[int64]bool{}
	for _, r := range dev.submits {
		if r.Offset%r.Size != 0 {
			t.Fatalf("offset %d not aligned to block size", r.Offset)
		}
		if r.Offset+r.Size > span {
			t.Fatalf("offset %d crosses span %d", r.Offset, span)
		}
		seen[r.Offset] = true
	}
	if len(seen) < 8 {
		t.Errorf("only %d distinct offsets over 256 random IOs", len(seen))
	}
}

func TestLatencyStatistics(t *testing.T) {
	eng := sim.NewEngine()
	dev := newFake(eng, 2*time.Millisecond)
	res := Run(eng, dev, Job{
		Op: device.OpRead, Pattern: Seq, BS: 4096, Depth: 1, TotalBytes: 32 * 4096,
	}, sim.NewRNG(1))
	if res.LatAvg != 2*time.Millisecond {
		t.Errorf("LatAvg = %v, want 2ms exactly (fixed service)", res.LatAvg)
	}
	if res.LatP50 != 2*time.Millisecond || res.LatP99 != 2*time.Millisecond {
		t.Errorf("percentiles %v/%v, want 2ms", res.LatP50, res.LatP99)
	}
	if res.LatMax != 2*time.Millisecond {
		t.Errorf("LatMax = %v", res.LatMax)
	}
	if len(res.Latencies) != 32 {
		t.Errorf("raw latencies %d, want 32", len(res.Latencies))
	}
	if res.IOPS < 490 || res.IOPS > 510 {
		t.Errorf("IOPS = %.1f, want ≈ 500", res.IOPS)
	}
}

func TestJobName(t *testing.T) {
	cases := []struct {
		j    Job
		want string
	}{
		{Job{Op: device.OpWrite, Pattern: Rand, BS: 256 << 10, Depth: 64}, "randwrite-256k-qd64"},
		{Job{Op: device.OpRead, Pattern: Seq, BS: 2 << 20, Depth: 1}, "read-2m-qd1"},
		{Job{Op: device.OpRead, Pattern: Rand, BS: 1536, Depth: 2}, "randread-1536b-qd2"},
	}
	for _, tc := range cases {
		if got := tc.j.Name(); got != tc.want {
			t.Errorf("Name() = %q, want %q", got, tc.want)
		}
	}
}

func TestInvalidJobsPanic(t *testing.T) {
	eng := sim.NewEngine()
	dev := newFake(eng, time.Millisecond)
	cases := []struct {
		name string
		j    Job
	}{
		{"bad bs", Job{Op: device.OpRead, BS: 1000, Depth: 1, Runtime: time.Second}},
		{"zero depth", Job{Op: device.OpRead, BS: 4096, Depth: 0, Runtime: time.Second}},
		{"no bound", Job{Op: device.OpRead, BS: 4096, Depth: 1}},
		{"span too small", Job{Op: device.OpRead, BS: 4096, Depth: 1, Runtime: time.Second, Span: 512}},
		{"span beyond device", Job{Op: device.OpRead, BS: 4096, Depth: 1, Runtime: time.Second, Span: 1 << 40}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			Start(eng, dev, tc.j, sim.NewRNG(1))
		})
	}
}

func TestResultBeforeDonePanics(t *testing.T) {
	eng := sim.NewEngine()
	dev := newFake(eng, time.Millisecond)
	r := Start(eng, dev, Job{Op: device.OpRead, BS: 4096, Depth: 1, TotalBytes: 4096 * 4}, sim.NewRNG(1))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	r.Result()
}

func TestRunnerIncremental(t *testing.T) {
	eng := sim.NewEngine()
	dev := newFake(eng, time.Millisecond)
	r := Start(eng, dev, Job{Op: device.OpRead, BS: 4096, Depth: 2, TotalBytes: 4096 * 10}, sim.NewRNG(1))
	steps := 0
	for !r.Done() {
		if !eng.Step() {
			t.Fatal("engine drained early")
		}
		steps++
	}
	if steps == 0 {
		t.Fatal("no steps taken")
	}
	if res := r.Result(); res.IOs != 10 {
		t.Fatalf("IOs = %d, want 10", res.IOs)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []device.Request {
		eng := sim.NewEngine()
		dev := newFake(eng, time.Millisecond)
		Run(eng, dev, Job{Op: device.OpWrite, Pattern: Rand, BS: 8192, Depth: 3, TotalBytes: 8192 * 50}, sim.NewRNG(99))
		return dev.submits
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("submission %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// Property: for any depth and byte bound, exactly ceil(bytes/bs) IOs are
// issued and all complete.
func TestExactIssueCountProperty(t *testing.T) {
	f := func(depth8, blocks8 uint8) bool {
		depth := int(depth8%32) + 1
		blocks := int64(blocks8%64) + 1
		eng := sim.NewEngine()
		dev := newFake(eng, time.Millisecond)
		res := Run(eng, dev, Job{
			Op: device.OpRead, Pattern: Rand, BS: 4096, Depth: depth, TotalBytes: blocks * 4096,
		}, sim.NewRNG(5))
		return res.IOs == blocks && dev.inflight == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPatternString(t *testing.T) {
	if Seq.String() != "seq" || Rand.String() != "rand" {
		t.Error("Pattern strings wrong")
	}
}

func TestOpenLoopPoissonRate(t *testing.T) {
	eng := sim.NewEngine()
	dev := newFake(eng, 100*time.Microsecond)
	res := Run(eng, dev, Job{
		Op: device.OpRead, Pattern: Rand, BS: 4096,
		Arrival: OpenPoisson, RateIOPS: 5000, Runtime: 2 * time.Second,
	}, sim.NewRNG(1))
	// Poisson with λ=5000 over 2 s: 10000 ± a few std devs (100).
	if res.IOs < 9500 || res.IOs > 10500 {
		t.Fatalf("IOs = %d, want ≈ 10000", res.IOs)
	}
}

func TestOpenLoopIndependentOfServiceTime(t *testing.T) {
	// A slow device must not slow open-loop arrivals: the queue builds
	// instead, and latency grows.
	eng := sim.NewEngine()
	dev := newFake(eng, 50*time.Millisecond)
	res := Run(eng, dev, Job{
		Op: device.OpRead, Pattern: Rand, BS: 4096,
		Arrival: OpenPoisson, RateIOPS: 1000, Runtime: 200 * time.Millisecond,
	}, sim.NewRNG(1))
	// Poisson with λ=1000 over 200 ms: 200 ± 4 std devs (14).
	if res.IOs < 144 || res.IOs > 256 {
		t.Fatalf("IOs = %d, want ≈ 200 (arrival-driven)", res.IOs)
	}
	if dev.maxInfl < 40 {
		t.Errorf("max inflight = %d; open loop should overwhelm the slow device", dev.maxInfl)
	}
}

func TestOpenLoopByteBound(t *testing.T) {
	eng := sim.NewEngine()
	dev := newFake(eng, time.Millisecond)
	res := Run(eng, dev, Job{
		Op: device.OpWrite, Pattern: Seq, BS: 4096,
		Arrival: OpenPoisson, RateIOPS: 100000, TotalBytes: 64 * 4096,
	}, sim.NewRNG(1))
	if res.IOs != 64 {
		t.Fatalf("IOs = %d, want 64 (byte bound)", res.IOs)
	}
}

func TestOpenLoopValidation(t *testing.T) {
	eng := sim.NewEngine()
	dev := newFake(eng, time.Millisecond)
	defer func() {
		if recover() == nil {
			t.Fatal("open arrivals without rate accepted")
		}
	}()
	Start(eng, dev, Job{Op: device.OpRead, BS: 4096, Arrival: OpenPoisson, Runtime: time.Second}, sim.NewRNG(1))
}
