package ssd_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"wattio/internal/catalog"
	"wattio/internal/device"
	"wattio/internal/sim"
	"wattio/internal/ssd"
	"wattio/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite testdata/pin_digests.txt from the current device model")

// pinDigestFile pins each pinShape's outcome: one "shape digest" line
// per shape, the digest being the first 8 bytes of the SHA-256 over the
// run's completion times, per-component energies, final EnergyJ and
// per-die busy horizons. Equal digests mean a bit-identical device run.
const pinDigestFile = "testdata/pin_digests.txt"

// pinShape is one device-level run: a closed loop of fixed-size random
// requests against one SSD.
type pinShape struct {
	name    string
	cfg     ssd.Config
	ps      int           // power state at the start
	cycle   []int         // power states applied one per psStep after the start
	bs      int64         // request size
	readPct int           // share of requests that are reads, percent
	depth   int           // requests in flight
	gap     time.Duration // think time before a slot submits its next request
	ios     int           // requests in total
	// guard names the metric the shape exists to exercise; the run
	// must move it, or the shape has stopped covering its case.
	guard string
}

const psStep = 30 * time.Millisecond

func pinShapes() []pinShape {
	flushy := ssd.TestConfig()
	flushy.PowerStates = nil
	flushy.WriteAmp = 1.5
	return []pinShape{
		// 8-page writes over 128 dies: the stripe is usually free.
		{name: "ssd2-128k", cfg: catalog.SSD2Config(), bs: 128 << 10, depth: 16, ios: 600,
			guard: "ssd_page_programs_total"},
		// 16-page writes over 8 dies program each die twice per write.
		{name: "t1-256k", cfg: ssd.TestConfig(), bs: 256 << 10, depth: 8, ios: 200,
			guard: "ssd_page_programs_total"},
		// A binding cap, stepped away and back, so programs wait on
		// regulator admissions and on power-state entry latency.
		{name: "ssd2-capped", cfg: catalog.SSD2Config(), ps: 2, cycle: []int{1, 2},
			bs: 128 << 10, depth: 32, ios: 4000, guard: "ssd_regulator_stalls_total"},
		// Sub-page writes with idle gaps: host and amplification pages
		// reach NAND through the open-page flush.
		{name: "t1-flush", cfg: flushy, bs: 12 << 10, depth: 2, gap: 15 * time.Millisecond, ios: 120,
			guard: "ssd_open_page_flushes_total"},
		// Multi-page reads interleaved with writes on the same dies.
		{name: "t1-read", cfg: ssd.TestConfig(), bs: 128 << 10, readPct: 50, depth: 4, ios: 300,
			guard: "ssd_page_reads_total"},
	}
}

// runPin runs one shape to quiescence and returns its digest.
func runPin(t *testing.T, s pinShape) string {
	t.Helper()
	reg := telemetry.NewRegistry()
	eng := sim.NewEngine()
	eng.EnableTelemetry(reg, nil)
	d, err := ssd.New(s.cfg, eng, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if s.ps != 0 {
		if err := d.SetPowerState(s.ps); err != nil {
			t.Fatal(err)
		}
	}
	for i, ps := range s.cycle {
		eng.Post(time.Duration(i+1)*psStep, func() {
			if err := d.SetPowerState(ps); err != nil {
				t.Error(err)
			}
		})
	}
	rng := sim.NewRNG(2)
	blocks := s.cfg.CapacityBytes / s.bs
	var done []time.Duration
	issued := 0
	var submit func()
	submit = func() {
		if issued == s.ios {
			return
		}
		issued++
		r := device.Request{Op: device.OpWrite, Offset: rng.Int64N(blocks) * s.bs, Size: s.bs}
		if rng.IntN(100) < s.readPct {
			r.Op = device.OpRead
		}
		d.Submit(r, func() {
			done = append(done, eng.Now())
			if s.gap > 0 {
				eng.PostAfter(s.gap, submit)
			} else {
				submit()
			}
		})
	}
	for i := 0; i < s.depth; i++ {
		submit()
	}
	eng.Run()
	if len(done) != s.ios {
		t.Fatalf("%s: %d of %d requests completed", s.name, len(done), s.ios)
	}
	if reg.Counter(s.guard).Value() == 0 {
		t.Fatalf("%s: %s stayed 0; the shape no longer covers its case", s.name, s.guard)
	}

	h := sha256.New()
	put := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	for _, at := range done {
		put(uint64(at))
	}
	names, joules := d.EnergyComponents()
	for i, n := range names {
		h.Write([]byte(n))
		put(math.Float64bits(joules[i]))
	}
	put(math.Float64bits(d.EnergyJ()))
	for _, at := range d.DieFreeAt() {
		put(uint64(at))
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:8])
}

// TestPinDigests holds the device model to its recorded behaviour: a
// change to how the IO path schedules its events, rather than to what
// the device does, keeps every digest. Regenerate with
// `go test ./internal/ssd -run TestPinDigests -update` only for a change
// meant to move device results.
func TestPinDigests(t *testing.T) {
	var b strings.Builder
	for _, s := range pinShapes() {
		fmt.Fprintf(&b, "%s %s\n", s.name, runPin(t, s))
	}
	if *update {
		if err := os.WriteFile(pinDigestFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(pinDigestFile)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	gotLines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(wantLines) != len(gotLines) {
		t.Fatalf("%s has %d shapes, the test has %d", pinDigestFile, len(wantLines), len(gotLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("device run moved: got %q, want %q", gotLines[i], wantLines[i])
		}
	}
}

// eventsAfterAck submits sequential writes of the given sizes, each on
// the previous one's acknowledgement, runs the device to quiescence, and
// returns the kernel events dispatched after the last acknowledgement.
// With no ripple, APST or open pages, those are the NAND program events
// still to come.
func eventsAfterAck(t *testing.T, cfg ssd.Config, sizes ...int64) uint64 {
	t.Helper()
	eng := sim.NewEngine()
	d, err := ssd.New(cfg, eng, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	var acked uint64
	var off int64
	var submit func(i int)
	submit = func(i int) {
		r := device.Request{Op: device.OpWrite, Offset: off, Size: sizes[i]}
		off += sizes[i]
		d.Submit(r, func() {
			if i+1 < len(sizes) {
				submit(i + 1)
				return
			}
			acked = eng.Dispatched()
		})
	}
	submit(0)
	eng.Run()
	return eng.Dispatched() - acked
}

// TestProgramRunEvents gates the page-run batching exactly: the eight
// programs of a 128 KiB write cost one start and one end event when
// their dies are free, and two events per page when a target die is
// busy or the write has more pages than the device has dies.
func TestProgramRunEvents(t *testing.T) {
	ssd2 := catalog.SSD2Config()
	ssd2.RippleBurstW = 0
	fourDies := ssd.TestConfig()
	fourDies.Channels = 2
	for _, tc := range []struct {
		name  string
		cfg   ssd.Config
		sizes []int64
		want  uint64
	}{
		{"idle SSD2", ssd2, []int64{128 << 10}, 2},
		{"idle 8 dies", ssd.TestConfig(), []int64{128 << 10}, 2},
		// The 16 KiB write leaves die 0 programming (its end event is
		// still due) and moves the stripe to die 1, so the 128 KiB
		// write's eighth page lands on busy die 0.
		{"busy die", ssd.TestConfig(), []int64{16 << 10, 128 << 10}, 1 + 2*8},
		{"more pages than dies", fourDies, []int64{128 << 10}, 2 * 8},
	} {
		if got := eventsAfterAck(t, tc.cfg, tc.sizes...); got != tc.want {
			t.Errorf("%s: %d events after the ack, want %d", tc.name, got, tc.want)
		}
	}
}
