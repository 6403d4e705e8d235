package adaptive

import (
	"slices"
	"testing"
	"time"

	"wattio/internal/catalog"
	"wattio/internal/core"
	"wattio/internal/device"
	"wattio/internal/sim"
	"wattio/internal/workload"
)

func evoSet(eng *sim.Engine, n int) []device.Device {
	rng := sim.NewRNG(9)
	out := make([]device.Device, n)
	for i := range out {
		out[i] = catalog.NewEVO(eng, rng.Stream(string(rune('a'+i))))
	}
	return out
}

func TestRedirectorStandbyPowerSavings(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	devs := evoSet(eng, 4)
	r, err := NewRedirector("mirror", devs, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(2 * time.Second) // let standby transitions settle
	// 1 active (0.35) + 3 slumbering (0.17) ≈ 0.86 W vs 1.40 W all-awake.
	got := r.InstantPower()
	if got < 0.80 || got > 0.92 {
		t.Errorf("ensemble power = %.3f W, want ≈ 0.86", got)
	}
	if err := r.SetActive(4); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(eng.Now() + 2*time.Second)
	got = r.InstantPower()
	if got < 1.35 || got > 1.45 {
		t.Errorf("all-awake power = %.3f W, want ≈ 1.40", got)
	}
}

func TestRedirectorRoutesToActiveOnly(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	devs := evoSet(eng, 3)
	r, err := NewRedirector("mirror", devs, 2)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(time.Second)
	before := make([]float64, 3)
	for i, d := range devs {
		before[i] = d.EnergyJ()
	}
	res := workload.Run(eng, r, workload.Job{
		Op: device.OpRead, Pattern: workload.Rand, BS: 4096, Depth: 8,
		TotalBytes: 16 << 20, Runtime: 10 * time.Second,
	}, sim.NewRNG(3))
	if res.IOs == 0 {
		t.Fatal("no IO completed")
	}
	// Device 2 (standby) must have stayed asleep: its energy growth is
	// pure slumber draw, with no IO-induced wake.
	if devs[2].Standby() == false {
		t.Error("standby replica was woken by redirected IO")
	}
	if r.WakesOnDemand != 0 {
		t.Errorf("WakesOnDemand = %d, want 0", r.WakesOnDemand)
	}
	if devs[0].EnergyJ() == before[0] && devs[1].EnergyJ() == before[1] {
		t.Error("active replicas served no IO")
	}
}

func TestRedirectorWakeOnDemand(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	devs := evoSet(eng, 2)
	r, _ := NewRedirector("mirror", devs, 1)
	eng.RunUntil(time.Second)
	if err := r.EnterStandby(); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(eng.Now() + time.Second)
	if !r.Standby() {
		t.Fatal("ensemble not in standby")
	}
	done := false
	r.Submit(device.Request{Op: device.OpRead, Offset: 0, Size: 4096}, func() { done = true })
	eng.RunUntil(eng.Now() + 2*time.Second)
	if !done {
		t.Fatal("IO against all-standby ensemble never completed")
	}
	if r.WakesOnDemand != 1 {
		t.Errorf("WakesOnDemand = %d, want 1", r.WakesOnDemand)
	}
}

func TestRedirectorValidation(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	devs := evoSet(eng, 2)
	if _, err := NewRedirector("r", nil, 1); err == nil {
		t.Error("empty device list accepted")
	}
	if _, err := NewRedirector("r", devs, 0); err == nil {
		t.Error("zero active accepted")
	}
	if _, err := NewRedirector("r", devs, 3); err == nil {
		t.Error("active > replicas accepted")
	}
	mixed := []device.Device{devs[0], catalog.NewSSD2(eng, sim.NewRNG(1))}
	if _, err := NewRedirector("r", mixed, 1); err == nil {
		t.Error("mismatched capacities accepted")
	}
}

func TestAsymmetricPlacerRouting(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	rng := sim.NewRNG(5)
	w := catalog.NewSSD1(eng, rng.Stream("w"))
	r1 := catalog.NewSSD2(eng, rng.Stream("r1"))
	r2 := catalog.NewSSD2(eng, rng.Stream("r2"))
	p, err := NewAsymmetricPlacer([]device.Device{w}, []device.Device{r1, r2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r1.PowerStateIndex() != 2 || r2.PowerStateIndex() != 2 {
		t.Errorf("readers not capped: ps %d, %d", r1.PowerStateIndex(), r2.PowerStateIndex())
	}
	if w.PowerStateIndex() != 0 {
		t.Errorf("writer capped: ps %d", w.PowerStateIndex())
	}

	wEnergy := w.EnergyJ()
	completions := 0
	for i := 0; i < 64; i++ {
		op := device.OpWrite
		if i%2 == 0 {
			op = device.OpRead
		}
		p.Submit(device.Request{Op: op, Offset: int64(i) * 1 << 20, Size: 256 << 10}, func() { completions++ })
	}
	eng.RunUntil(eng.Now() + 5*time.Second)
	if completions != 64 {
		t.Fatalf("%d/64 IOs completed", completions)
	}
	if w.EnergyJ() == wEnergy {
		t.Error("writer received no traffic")
	}
	if p.TotalPower() <= 0 {
		t.Error("TotalPower not positive")
	}
}

func TestAsymmetricPlacerValidation(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	rng := sim.NewRNG(5)
	s1 := catalog.NewSSD1(eng, rng.Stream("a"))
	s3 := catalog.NewSSD3(eng, rng.Stream("b"))
	if _, err := NewAsymmetricPlacer(nil, []device.Device{s1}, 0); err == nil {
		t.Error("missing writers accepted")
	}
	if _, err := NewAsymmetricPlacer([]device.Device{s1}, nil, 0); err == nil {
		t.Error("missing readers accepted")
	}
	// SSD3 has no power states; capping it must fail...
	if _, err := NewAsymmetricPlacer([]device.Device{s1}, []device.Device{s3}, 1); err == nil {
		t.Error("capping stateless reader accepted")
	}
	// ...but leaving it uncapped is fine.
	if _, err := NewAsymmetricPlacer([]device.Device{s1}, []device.Device{s3}, 0); err != nil {
		t.Errorf("uncapped stateless reader rejected: %v", err)
	}
}

func TestTierAbsorbsWritesDuringStandby(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	rng := sim.NewRNG(6)
	fast := catalog.NewSSD3(eng, rng.Stream("fast"))
	slow := catalog.NewHDD(eng, rng.Stream("slow"))
	tm, err := NewTierManager(fast, slow, 0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	slow.EnterStandby()
	eng.RunUntil(5 * time.Second)
	if !slow.Standby() {
		t.Fatal("HDD not in standby")
	}

	writesDone := 0
	start := eng.Now()
	for i := 0; i < 16; i++ {
		tm.Submit(device.Request{Op: device.OpWrite, Offset: int64(i) * 1 << 20, Size: 64 << 10}, func() { writesDone++ })
	}
	eng.RunUntil(eng.Now() + time.Second)
	if writesDone != 16 {
		t.Fatalf("%d/16 absorbed writes completed", writesDone)
	}
	if slow.Standby() == false {
		t.Error("absorbed writes woke the HDD")
	}
	if tm.AbsorbedWrites != 16 || tm.AbsorbedBytes != 16*(64<<10) {
		t.Errorf("absorbed %d writes / %d bytes", tm.AbsorbedWrites, tm.AbsorbedBytes)
	}
	if eng.Now()-start > 2*time.Second {
		t.Error("absorption did not mask spin-up latency")
	}

	// Absorbed blocks read back from the fast tier without a wake.
	readDone := false
	tm.Submit(device.Request{Op: device.OpRead, Offset: 0, Size: 64 << 10}, func() { readDone = true })
	eng.RunUntil(eng.Now() + time.Second)
	if !readDone {
		t.Fatal("read of absorbed block did not complete")
	}
	if !slow.Standby() {
		t.Error("read of absorbed block woke the HDD")
	}

	// Flush drains everything back to the HDD.
	flushed := false
	tm.Flush(func() { flushed = true })
	eng.RunUntil(eng.Now() + 30*time.Second)
	if !flushed {
		t.Fatal("flush did not complete")
	}
	if tm.PendingBytes() != 0 {
		t.Errorf("PendingBytes = %d after flush", tm.PendingBytes())
	}
	if slow.Standby() {
		t.Error("HDD still in standby after flush")
	}
}

func TestTierReadOfColdBlockWakesSlow(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	rng := sim.NewRNG(6)
	fast := catalog.NewSSD3(eng, rng.Stream("fast"))
	slow := catalog.NewHDD(eng, rng.Stream("slow"))
	tm, _ := NewTierManager(fast, slow, 0, 1<<30)
	slow.EnterStandby()
	eng.RunUntil(5 * time.Second)

	done := false
	start := eng.Now()
	tm.Submit(device.Request{Op: device.OpRead, Offset: 4 << 20, Size: 4096}, func() { done = true })
	eng.RunUntil(eng.Now() + 15*time.Second)
	if !done {
		t.Fatal("cold read never completed")
	}
	// The read had to pay the ~8.5 s spin-up.
	if eng.Now()-start < 8*time.Second {
		t.Error("cold read completed without spin-up delay")
	}
}

func TestTierLogFullFallsBack(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	rng := sim.NewRNG(6)
	fast := catalog.NewSSD3(eng, rng.Stream("fast"))
	slow := catalog.NewHDD(eng, rng.Stream("slow"))
	tm, _ := NewTierManager(fast, slow, 0, 128<<10) // tiny log: two 64 KiB blocks
	slow.EnterStandby()
	eng.RunUntil(5 * time.Second)
	done := 0
	for i := 0; i < 3; i++ {
		tm.Submit(device.Request{Op: device.OpWrite, Offset: int64(i) * 1 << 20, Size: 64 << 10}, func() { done++ })
	}
	eng.RunUntil(eng.Now() + 15*time.Second)
	if done != 3 {
		t.Fatalf("%d/3 writes completed", done)
	}
	if tm.AbsorbedWrites != 2 {
		t.Errorf("absorbed %d writes, want 2 (third overflows)", tm.AbsorbedWrites)
	}
	if slow.Standby() {
		t.Error("overflow write did not wake the HDD")
	}
}

// writeLog wraps a device and records the home offset of every write
// submitted to it.
type writeLog struct {
	device.Device
	offsets []int64
}

func (d *writeLog) Submit(req device.Request, done func()) {
	if req.Op == device.OpWrite {
		d.offsets = append(d.offsets, req.Offset)
	}
	d.Device.Submit(req, done)
}

// TestTierFlushWritesHomeInAbsorptionOrder absorbs blocks at shuffled
// home offsets, rewrites one of them, and completes the flush's log
// reads newest first. The slow tier must still see one write per block,
// in the order the blocks were first absorbed.
func TestTierFlushWritesHomeInAbsorptionOrder(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	rng := sim.NewRNG(6)
	fast := &heldDevice{Device: catalog.NewSSD3(eng, rng.Stream("fast"))}
	slow := &writeLog{Device: catalog.NewHDD(eng, rng.Stream("slow"))}
	tm, err := NewTierManager(fast, slow, 0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	slow.EnterStandby()
	eng.RunUntil(5 * time.Second)

	var want []int64
	for _, blk := range []int64{7, 3, 12, 0, 9, 5, 14, 1, 11, 2, 13, 4, 8, 15, 6, 10} {
		want = append(want, blk<<20)
		tm.Submit(device.Request{Op: device.OpWrite, Offset: blk << 20, Size: 64 << 10}, func() {})
	}
	tm.Submit(device.Request{Op: device.OpWrite, Offset: 3 << 20, Size: 64 << 10}, func() {})
	for len(fast.held) > 0 {
		fast.complete()
	}
	if len(slow.offsets) != 0 {
		t.Fatalf("absorbed writes reached the slow tier: %v", slow.offsets)
	}

	flushed := false
	tm.Flush(func() { flushed = true })
	for i := len(fast.held) - 1; i >= 0; i-- {
		fast.held[i]()
	}
	fast.held = nil
	eng.RunUntil(eng.Now() + 30*time.Second)
	if !flushed {
		t.Fatal("flush did not complete")
	}
	if !slices.Equal(slow.offsets, want) {
		t.Fatalf("home writes arrived at %v, want absorption order %v", slow.offsets, want)
	}
}

func TestTierValidation(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	rng := sim.NewRNG(6)
	fast := catalog.NewSSD3(eng, rng.Stream("fast"))
	slow := catalog.NewHDD(eng, rng.Stream("slow"))
	if _, err := NewTierManager(fast, slow, 0, 0); err == nil {
		t.Error("zero log accepted")
	}
	if _, err := NewTierManager(fast, slow, fast.CapacityBytes(), 1<<20); err == nil {
		t.Error("log outside fast device accepted")
	}
}

func fakeSample(dev string, ps int, w, mbps float64) core.Sample {
	return core.Sample{
		Config:         core.Config{Device: dev, PowerState: ps, Random: true, Write: true, ChunkBytes: 256 << 10, Depth: 64},
		PowerW:         w,
		ThroughputMBps: mbps,
	}
}

func TestBudgetControllerApply(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	rng := sim.NewRNG(8)
	d1 := catalog.NewSSD1(eng, rng.Stream("1"))
	d2 := catalog.NewSSD2(eng, rng.Stream("2"))
	m1, _ := core.NewModel("SSD1", []core.Sample{
		fakeSample("SSD1", 0, 8.2, 3500),
		fakeSample("SSD1", 2, 5.8, 1800),
	})
	m2, _ := core.NewModel("SSD2", []core.Sample{
		fakeSample("SSD2", 0, 14.8, 3400),
		fakeSample("SSD2", 2, 10.0, 1800),
	})
	fleet, _ := core.NewFleet(m1, m2)
	bc, err := NewBudgetController(fleet, []device.Device{d1, d2})
	if err != nil {
		t.Fatal(err)
	}
	// 23 W fits both at ps0; 16 W forces both down.
	a, err := bc.Apply(16)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalPowerW > 16 {
		t.Errorf("assignment power %.2f exceeds budget", a.TotalPowerW)
	}
	if d1.PowerStateIndex() != a.Configs["SSD1"].PowerState {
		t.Error("SSD1 power state not applied")
	}
	if d2.PowerStateIndex() != a.Configs["SSD2"].PowerState {
		t.Error("SSD2 power state not applied")
	}
	if _, err := bc.Apply(5); err == nil {
		t.Error("impossible budget accepted")
	}
}

func TestBudgetControllerValidation(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	rng := sim.NewRNG(8)
	d1 := catalog.NewSSD1(eng, rng.Stream("1"))
	m2, _ := core.NewModel("SSD2", []core.Sample{fakeSample("SSD2", 0, 14.8, 3400)})
	fleet, _ := core.NewFleet(m2)
	if _, err := NewBudgetController(fleet, []device.Device{d1}); err == nil {
		t.Error("model without live device accepted")
	}
	m1, _ := core.NewModel("SSD1", []core.Sample{fakeSample("SSD1", 0, 8.2, 3500)})
	fleet1, _ := core.NewFleet(m1)
	eng2 := sim.NewEngine()
	d2 := catalog.NewSSD2(eng2, rng.Stream("2"))
	if _, err := NewBudgetController(fleet1, []device.Device{d1, d2}); err == nil {
		t.Error("extra device without model accepted")
	}
}

func buildHierarchy(eng *sim.Engine) *Domain {
	rng := sim.NewRNG(4)
	leaf := func(name string, n int) *Domain {
		d := &Domain{Name: name, BreakerW: 40}
		for i := 0; i < n; i++ {
			d.Devices = append(d.Devices, catalog.NewSSD2(eng, rng.Stream(name+string(rune('0'+i)))))
		}
		return d
	}
	return &Domain{
		Name:     "rack",
		BreakerW: 200,
		Children: []*Domain{
			{Name: "subrackA", BreakerW: 100, Children: []*Domain{leaf("A1", 2), leaf("A2", 2)}},
			{Name: "subrackB", BreakerW: 100, Children: []*Domain{leaf("B1", 2), leaf("B2", 2)}},
		},
	}
}

func TestDomainPowerAndBreakers(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	root := buildHierarchy(eng)
	// 8 idle SSD2s at 5 W = 40 W total.
	if p := root.Power(); p < 39 || p > 41 {
		t.Errorf("rack power = %.1f W, want ≈ 40", p)
	}
	if v := root.CheckBreakers(); len(v) != 0 {
		t.Errorf("idle rack reports violations: %v", v)
	}
	// Shrink a leaf breaker below its idle draw: violation.
	root.Children[0].Children[0].BreakerW = 5
	v := root.CheckBreakers()
	if len(v) != 1 || v[0].Domain.Name != "A1" {
		t.Errorf("violations = %+v, want A1 only", v)
	}
}

func TestRolloutSpreadsAcrossParents(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	root := buildHierarchy(eng)
	r := NewRollout(root)
	first := r.Stage(2)
	if len(first) != 2 {
		t.Fatalf("staged %d domains, want 2", len(first))
	}
	// The two enabled leaves must sit under different sub-racks.
	parentOf := func(d *Domain) string { return d.Name[:2] }
	if parentOf(first[0]) == parentOf(first[1]) {
		t.Errorf("stage concentrated in one sub-rack: %s, %s", first[0].Name, first[1].Name)
	}
	rest := r.Stage(10)
	if len(rest) != 2 {
		t.Errorf("second stage enabled %d, want the remaining 2", len(rest))
	}
	if r.EnabledCount() != 4 {
		t.Errorf("EnabledCount = %d, want 4", r.EnabledCount())
	}
	if more := r.Stage(1); len(more) != 0 {
		t.Errorf("staging past completion returned %v", more)
	}
}

func TestRolloutHalt(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	root := buildHierarchy(eng)
	r := NewRollout(root)
	staged := r.Stage(1)
	if err := r.Halt(staged[0]); err != nil {
		t.Fatal(err)
	}
	if r.EnabledCount() != 0 {
		t.Error("halt did not disable domain")
	}
	if err := r.Halt(staged[0]); err == nil {
		t.Error("double halt accepted")
	}
}

// heldDevice wraps a replica so a test completes its IO by hand:
// Submit holds the callback until complete runs it, and down takes the
// replica out of the healthy set.
type heldDevice struct {
	device.Device
	held []func()
	down bool
}

func (d *heldDevice) Submit(_ device.Request, done func()) { d.held = append(d.held, done) }

func (d *heldDevice) Healthy() bool { return !d.down }

// complete runs the replica's oldest held completion.
func (d *heldDevice) complete() {
	done := d.held[0]
	d.held = append(d.held[:0], d.held[1:]...)
	done()
}

// TestRedirectorResubmitReusesRecord drives a closed loop whose
// completion callback resubmits at once, so each new IO takes the
// completion record its predecessor just freed. The per-replica counts
// must follow the IOs, also when the resubmission goes to another
// replica than the one that finished, and a warm pool must serve the
// loop without allocating.
func TestRedirectorResubmitReusesRecord(t *testing.T) {
	eng := sim.NewEngine()
	evos := evoSet(eng, 2)
	reps := []*heldDevice{{Device: evos[0]}, {Device: evos[1]}}
	r, err := NewRedirector("mirror", []device.Device{reps[0], reps[1]}, 2)
	if err != nil {
		t.Fatal(err)
	}
	req := device.Request{Op: device.OpRead, Size: 4096}
	var resubmit func()
	resubmit = func() { r.Submit(req, resubmit) }
	r.Submit(req, resubmit) // replica 0
	r.Submit(req, resubmit) // replica 1
	check := func(when string, outstanding, completed []int) {
		t.Helper()
		if !slices.Equal(r.outstanding, outstanding) || !slices.Equal(r.CompletedByReplica(), completed) {
			t.Fatalf("%s: outstanding %v completed %v, want %v and %v",
				when, r.outstanding, r.CompletedByReplica(), outstanding, completed)
		}
	}

	// Replica 0 finishes while down: the completion is charged to it,
	// and the resubmission, on the same record, goes to replica 1.
	reps[0].down = true
	reps[0].complete()
	check("after a completion on a down replica", []int{0, 2}, []int{1, 0})
	if len(reps[0].held) != 0 || len(reps[1].held) != 2 {
		t.Fatalf("held IO %d/%d, want 0/2", len(reps[0].held), len(reps[1].held))
	}
	reps[0].down = false

	allocs := testing.AllocsPerRun(100, reps[1].complete)
	if allocs != 0 {
		t.Errorf("%.1f allocations per completion and resubmission, want 0", allocs)
	}
	// 101 completions on replica 1 (AllocsPerRun warms up once); the
	// loop settles at one IO on each replica.
	check("after the closed loop", []int{1, 1}, []int{1, 101})
}
