package ssd_test

import (
	"testing"
	"time"

	"wattio/internal/device"
	"wattio/internal/sim"
	"wattio/internal/ssd"
)

// pageRunsCase decodes a fuzz input into a device config and an
// open-loop request schedule. The first byte picks the config: bit 0 a
// 4-die instead of the 8-die TestConfig, bit 1 reads as long as
// programs and a 1 ms power-state entry, so that reads, programs and
// admissions land on common instants. Each later 4-byte group is one
// request: op and offset, size, the gap before it, and the power state
// it is submitted in.
func pageRunsCase(data []byte) (ssd.Config, []fuzzReq) {
	cfg := ssd.TestConfig()
	var mode byte
	if len(data) > 0 {
		mode, data = data[0], data[1:]
	}
	if mode&1 != 0 {
		cfg.Channels = 2
	}
	if mode&2 != 0 {
		cfg.TRead = cfg.TProg
		for i := range cfg.PowerStates {
			cfg.PowerStates[i].EntryLatency = time.Millisecond
		}
	}
	var reqs []fuzzReq
	for ; len(data) >= 4 && len(reqs) < 64; data = data[4:] {
		op, size, gap, ps := data[0], data[1], data[2], data[3]
		r := fuzzReq{
			req: device.Request{Op: device.OpWrite, Offset: int64(op>>1) << 14},
			gap: time.Duration(gap) * 20 * time.Microsecond,
			ps:  int(ps) % len(cfg.PowerStates),
		}
		if op&1 != 0 {
			r.req.Op = device.OpRead
		}
		// Sizes from 4 KiB to 512 KiB: sub-page writes reach NAND
		// through open pages, and the largest requests span 32 pages.
		r.req.Size = int64(size&31+1) << 14
		if size&32 != 0 {
			r.req.Size = int64(size&31+1) << 12
		}
		reqs = append(reqs, r)
	}
	return cfg, reqs
}

type fuzzReq struct {
	req device.Request
	gap time.Duration
	ps  int
}

// runPageRuns runs the schedule on one device and returns the run's
// digest (see runDigest), its die energy and the kernel events it
// dispatched.
func runPageRuns(t *testing.T, cfg ssd.Config, reqs []fuzzReq, perPage bool) (string, float64, uint64) {
	eng := sim.NewEngine()
	d, err := ssd.New(cfg, eng, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if perPage {
		d.PostPerPage()
	}
	var done []time.Duration
	var at time.Duration
	ps := 0
	for _, r := range reqs {
		at += r.gap
		r := r
		change := r.ps != ps
		ps = r.ps
		eng.Post(at, func() {
			if change {
				if err := d.SetPowerState(r.ps); err != nil {
					t.Error(err)
				}
			}
			d.Submit(r.req, func() { done = append(done, eng.Now()) })
		})
	}
	for eng.Step() {
		if n := d.BusyDies(); n < 0 || n > cfg.Dies() {
			t.Fatalf("%d busy dies of %d", n, cfg.Dies())
		}
	}
	if n := d.BusyDies(); n != 0 {
		t.Fatalf("%d dies still busy once the device drained", n)
	}
	if len(done) != len(reqs) {
		t.Fatalf("%d of %d requests completed", len(done), len(reqs))
	}
	return runDigest(d, done), dieEnergy(d), eng.Dispatched()
}

// FuzzPageRuns holds the page-run builder to the per-page posting it
// replaces: on any request schedule, both must produce the same device
// run (the fields TestPinDigests hashes, and the same die energy to the
// bit), and the runs never post more events. Along the way the busy-die
// count stays within the die count, and it is 0 once the device drains.
func FuzzPageRuns(f *testing.F) {
	// Mixed reads and writes, back to back, with a cap step.
	f.Add([]byte{0, 0, 7, 0, 0, 3, 15, 0, 0, 1, 7, 0, 1, 4, 3, 0, 0, 9, 15, 1, 0, 1, 31, 0, 0})
	// Wide writes on 4 dies on the common-instant config, with
	// power-state changes holding several requests to one instant.
	f.Add([]byte{3, 0, 15, 0, 0, 2, 3, 0, 1, 6, 15, 0, 0, 3, 0, 0, 1, 8, 7, 3, 0, 4, 1, 0, 1})
	// Sub-page writes with gaps that let open pages flush.
	f.Add([]byte{2, 0, 34, 10, 0, 2, 35, 0, 0, 4, 40, 255, 0, 1, 3, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, reqs := pageRunsCase(data)
		if len(reqs) == 0 {
			return
		}
		got, gotJ, events := runPageRuns(t, cfg, reqs, false)
		want, wantJ, perPage := runPageRuns(t, cfg, reqs, true)
		if got != want {
			t.Fatalf("page runs moved the device run: digest %s, per page %s", got, want)
		}
		if gotJ != wantJ {
			t.Fatalf("page runs moved the die energy: %v J, per page %v J", gotJ, wantJ)
		}
		if events > perPage {
			t.Fatalf("page runs dispatched %d events, per page %d", events, perPage)
		}
	})
}
