package ssd_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
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

// pinDigestFile pins each pinShape's outcome: one "shape digest dieJ"
// line per shape. The digest is the first 8 bytes of the SHA-256 over
// the run's completion times, device-level component energies, final
// EnergyJ and per-die busy horizons; equal digests mean a bit-identical
// device run. dieJ is the energy the meter books to the dies, pinned to
// the bit like the rest: the meter's ledger is exact, so no order of
// updates can move it, only a change to what the dies draw.
const pinDigestFile = "testdata/pin_digests.txt"

// deviceComponents is the number of device-level meter components
// (controller, interface, cmd, ripple, transition); the components after
// them carry the dies' draw.
const deviceComponents = 5

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
	fourDies := ssd.TestConfig()
	fourDies.Channels = 2
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
		// Saturated 256 KiB writes: stripe dies are still programming
		// when the next write's pages are ready, so one write's pages
		// start at several times.
		{name: "ssd2-256k-sat", cfg: catalog.SSD2Config(), bs: 256 << 10, depth: 64, ios: 3000,
			guard: "ssd_page_programs_total"},
		// Multi-page reads among writes under a binding cap: regulator
		// stalls spread one read's page starts, and its dies are busy
		// with programs.
		{name: "ssd2-read-capped", cfg: catalog.SSD2Config(), ps: 2, bs: 256 << 10, readPct: 50,
			depth: 32, ios: 3000, guard: "ssd_regulator_stalls_total"},
		// 8-page writes over 4 dies: every write wraps its die array.
		{name: "t4-wide", cfg: fourDies, bs: 128 << 10, depth: 4, ios: 300,
			guard: "ssd_page_programs_total"},
	}
}

// runPin runs one shape to quiescence and returns its digest and die
// energy.
func runPin(t *testing.T, s pinShape) (string, float64) {
	t.Helper()
	reg := telemetry.NewRegistry()
	eng := sim.NewEngine()
	eng.EnableTelemetry(reg, nil)
	d, err := ssd.New(&s.cfg, s.cfg.Name, eng, sim.NewRNG(1))
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
	return runDigest(d, done), dieEnergy(d)
}

// runDigest hashes a finished run: its completion times, device-level
// component energies, final EnergyJ and per-die busy horizons.
func runDigest(d *ssd.SSD, done []time.Duration) string {
	h := sha256.New()
	put := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	for _, at := range done {
		put(uint64(at))
	}
	names, joules := d.EnergyComponents()
	for i, n := range names[:deviceComponents] {
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

// dieEnergy returns the joules the meter books to the dies, in total.
func dieEnergy(d *ssd.SSD) float64 {
	_, joules := d.EnergyComponents()
	var sum float64
	for _, j := range joules[deviceComponents:] {
		sum += j
	}
	return sum
}

// TestPinDigests holds the device model to its recorded behaviour: a
// change to how the IO path schedules its events, rather than to what
// the device does, keeps every digest. Regenerate with
// `go test ./internal/ssd -run TestPinDigests -update` only for a change
// meant to move device results.
func TestPinDigests(t *testing.T) {
	shapes := pinShapes()
	digests := make([]string, len(shapes))
	dieJ := make([]float64, len(shapes))
	for i, s := range shapes {
		digests[i], dieJ[i] = runPin(t, s)
	}
	if *update {
		var b strings.Builder
		for i, s := range shapes {
			fmt.Fprintf(&b, "%s %s %s\n", s.name, digests[i], strconv.FormatFloat(dieJ[i], 'g', -1, 64))
		}
		if err := os.WriteFile(pinDigestFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(pinDigestFile)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	lines := strings.Split(strings.TrimSpace(string(want)), "\n")
	if len(lines) != len(shapes) {
		t.Fatalf("%s has %d shapes, the test has %d", pinDigestFile, len(lines), len(shapes))
	}
	for i, s := range shapes {
		f := strings.Fields(lines[i])
		if len(f) != 3 || f[0] != s.name {
			t.Fatalf("%s line %d: %q, want \"%s digest dieJ\"", pinDigestFile, i+1, lines[i], s.name)
		}
		if digests[i] != f[1] {
			t.Errorf("%s: device run moved: digest %s, want %s", s.name, digests[i], f[1])
		}
		wantJ, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		if dieJ[i] != wantJ {
			t.Errorf("%s: die energy %v J, want %v J", s.name, dieJ[i], wantJ)
		}
	}
}

// pageEvents builds a device from cfg without telemetry, calls setup at
// time 0, runs the device to quiescence, and returns the kernel events
// dispatched after setup's last call to mark. With no ripple, APST or
// open pages, those are the IO-path events still to come.
func pageEvents(t *testing.T, cfg ssd.Config, setup func(eng *sim.Engine, d *ssd.SSD, mark func())) uint64 {
	t.Helper()
	eng := sim.NewEngine()
	d, err := ssd.New(&cfg, cfg.Name, eng, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	var marked uint64
	setup(eng, d, func() { marked = eng.Dispatched() })
	eng.Run()
	return eng.Dispatched() - marked
}

// writesThen submits sequential writes of the given sizes, each on the
// previous one's acknowledgement, and marks at the last one.
func writesThen(sizes ...int64) func(*sim.Engine, *ssd.SSD, func()) {
	return func(_ *sim.Engine, d *ssd.SSD, mark func()) {
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
				mark()
			})
		}
		submit(0)
	}
}

// TestProgramRunEvents gates the page runs and the direct hops exactly.
// A call posts one start and one end event for each group of its pages
// that start at one instant, and falls back to two events per page only
// when one group ends at the instant another starts and their pages
// interleave. A stage due at the instant it is reached, with nothing
// else due then, runs as a direct call and is no event: a run starting
// on idle dies costs only its end.
func TestProgramRunEvents(t *testing.T) {
	ssd2 := catalog.SSD2Config()
	ssd2.RippleBurstW = 0
	fourDies := ssd.TestConfig()
	fourDies.Channels = 2
	// Reads take as long as programs, and entering a power state takes
	// 1 ms, so a read and a write's programs can be held to start at
	// the same instant.
	lattice := ssd.TestConfig()
	lattice.Channels = 2
	lattice.TRead = lattice.TProg
	lattice.PowerStates[0].EntryLatency = time.Millisecond
	for _, tc := range []struct {
		name  string
		cfg   ssd.Config
		setup func(*sim.Engine, *ssd.SSD, func())
		want  uint64
	}{
		{"idle SSD2", ssd2, writesThen(128 << 10), 1},
		{"idle 8 dies", ssd.TestConfig(), writesThen(128 << 10), 1},
		// The 16 KiB write leaves die 0 programming (its end event is
		// still due) and moves the stripe to die 1, so the 128 KiB
		// write's eighth page waits for busy die 0: two runs, the
		// second started by an event.
		{"busy die", ssd.TestConfig(), writesThen(16<<10, 128<<10), 1 + 1 + 2},
		// Eight pages on four dies: the second four start as the first
		// four end, after them in page order.
		{"more pages than dies", fourDies, writesThen(128 << 10), 1 + 2},
		// Submitted on the 16 KiB write's ack, a 128 KiB read of pages
		// 1-8: the write's program end (1), the read's command end (1),
		// two page runs, the last page waiting for die 0 (1 + 2), and
		// the link transfer's end (1). The read's command start, its
		// admission, its first run's start and its link transfer's
		// start are direct hops.
		{"read with a busy die", ssd.TestConfig(), func(_ *sim.Engine, d *ssd.SSD, mark func()) {
			d.Submit(device.Request{Op: device.OpWrite, Size: 16 << 10}, func() {
				mark()
				d.Submit(device.Request{Op: device.OpRead, Offset: 16 << 10, Size: 128 << 10}, func() {})
			})
		}, 1 + 1 + 1 + 2 + 1},
		// A whole 256 KiB write on an idle SSD2, submitted once power
		// state 0's entry latency has passed: the command's end, the
		// link transfer's end, the buffer insert and one page run's
		// end. The command's start, the admission after the command,
		// the transfer's start, the ack and the run's start are direct
		// hops; posted, they were 5 more events.
		{"idle SSD2 write chain", ssd2, func(eng *sim.Engine, d *ssd.SSD, mark func()) {
			eng.Post(time.Millisecond, func() {
				mark()
				d.Submit(device.Request{Op: device.OpWrite, Size: 256 << 10}, func() {})
			})
		}, 4},
		// The same write submitted behind an event already queued for
		// its instant: the command's start is due then too, so it is
		// posted and fires after that event, not called. The queued
		// event and the posted start are 2 more events; the later
		// hops find nothing else due and stay direct.
		{"idle SSD2 write chain behind a queued event", ssd2, func(eng *sim.Engine, d *ssd.SSD, mark func()) {
			eng.Post(time.Millisecond, func() {
				mark()
				eng.Post(eng.Now(), func() {})
				d.Submit(device.Request{Op: device.OpWrite, Size: 256 << 10}, func() {})
			})
		}, 4 + 2},
		// A 64 KiB write's ack and a one-page read of die 1 are both
		// held to the end of a power-state entry, 1.5 ms; the read,
		// released by an earlier event, goes first.
		// The write's pages on dies 0, 2 and 3 start at 1 ms and end
		// as its page on die 1 starts, between them in page order, so
		// the write posts per page: the read (2 page events and 2 link
		// events) and 4 pages at 2 events each.
		{"interleaved", lattice, func(eng *sim.Engine, d *ssd.SSD, mark func()) {
			d.Submit(device.Request{Op: device.OpWrite, Size: 64 << 10}, mark)
			eng.Post(500*time.Microsecond, func() {
				if err := d.SetPowerState(0); err != nil {
					t.Error(err)
				}
				d.Submit(device.Request{Op: device.OpRead, Offset: 16 << 10, Size: 16 << 10}, func() {})
			})
		}, 2 + 2 + 2*4},
	} {
		if got := pageEvents(t, tc.cfg, tc.setup); got != tc.want {
			t.Errorf("%s: %d events after the mark, want %d", tc.name, got, tc.want)
		}
	}
}
