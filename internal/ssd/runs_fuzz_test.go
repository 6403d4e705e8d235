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
// admissions land on common instants, bit 2 the smallest write buffer,
// so that writes wait for buffer space and page ends wake them. Each
// later 4-byte group is one request: op and offset, size, the gap
// before it, and the power state it is submitted in.
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
	if mode&4 != 0 {
		cfg.BufferBytes = 4 << 20
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

// runPageRuns runs the schedule on one device, under PostAll when
// postAll is set, and returns the run's digest (see runDigest), its die
// energy and the kernel events it dispatched.
func runPageRuns(t *testing.T, cfg ssd.Config, reqs []fuzzReq, postAll bool) (string, float64, uint64) {
	eng := sim.NewEngine()
	d, err := ssd.New(&cfg, cfg.Name, eng, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if postAll {
		d.PostAll()
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

// FuzzPageRuns holds the IO path's event folds (page runs, one-step page
// ends and direct hops) to the all-posted reference that PostAll
// selects: on any request schedule, both must produce the same device
// run (the fields TestPinDigests hashes, and the same die energy to the
// bit), and the folds never dispatch more events. Along the way the
// busy-die count stays within the die count, and it is 0 once the
// device drains.
func FuzzPageRuns(f *testing.F) {
	// Mixed reads and writes, back to back, with a cap step.
	f.Add([]byte{0, 0, 7, 0, 0, 3, 15, 0, 0, 1, 7, 0, 1, 4, 3, 0, 0, 9, 15, 1, 0, 1, 31, 0, 0})
	// Wide writes on 4 dies on the common-instant config, with
	// power-state changes holding several requests to one instant.
	f.Add([]byte{3, 0, 15, 0, 0, 2, 3, 0, 1, 6, 15, 0, 0, 3, 0, 0, 1, 8, 7, 3, 0, 4, 1, 0, 1})
	// Sub-page writes with gaps that let open pages flush.
	f.Add([]byte{2, 0, 34, 10, 0, 2, 35, 0, 0, 4, 40, 255, 0, 1, 3, 0, 1})
	// The seeds below hold a hop to an instant at which another event
	// is already queued, so the hop must be posted behind it.
	// Two reads submitted at one instant: the first's command start,
	// admission, page-run start and link-transfer start each fall due
	// behind another event.
	f.Add([]byte{3, 199, 59, 1, 0, 57, 44, 0, 0})
	// Two writes submitted at one instant in the capped state: the
	// first's admission falls due behind the second's command start.
	f.Add([]byte{0, 216, 50, 3, 1, 192, 22, 0, 1})
	// Two writes whose acknowledgements fall on one instant.
	f.Add([]byte{3, 134, 19, 1, 1, 100, 47, 7, 1})
	// A read fanning in as a write's link transfer ends: the read's
	// transfer start falls due behind the write's next stage.
	f.Add([]byte{0, 213, 6, 5, 1, 231, 11, 5, 1, 70, 41, 5, 1})
	// Writes into the smallest buffer: a run's end frees buffer space,
	// and the write it wakes starts its link transfer as a direct hop
	// inside that end.
	f.Add([]byte{6, 220, 26, 1, 0, 194, 5, 0, 0, 230, 1, 5, 1, 148, 47, 6, 1, 190, 22, 3, 1,
		208, 3, 1, 1, 14, 12, 3, 0, 25, 18, 3, 0, 102, 29, 0, 1, 100, 53, 2, 0, 218, 35, 4, 0,
		152, 8, 1, 1, 216, 49, 6, 1, 194, 5, 2, 1, 253, 62, 5, 0, 36, 18, 6, 1, 36, 12, 0, 1,
		122, 27, 5, 1, 236, 8, 0, 0, 52, 5, 0, 1, 56, 20, 7, 1, 54, 54, 3, 1, 72, 23, 5, 1,
		52, 25, 5, 1, 14, 30, 6, 1, 240, 12, 6, 1, 146, 62, 6, 1, 93, 27, 0, 1, 96, 3, 7, 1,
		228, 24, 1, 1, 237, 23, 7, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, reqs := pageRunsCase(data)
		if len(reqs) == 0 {
			return
		}
		got, gotJ, events := runPageRuns(t, cfg, reqs, false)
		want, wantJ, posted := runPageRuns(t, cfg, reqs, true)
		if got != want {
			t.Fatalf("the folds moved the device run: digest %s, all posted %s", got, want)
		}
		if gotJ != wantJ {
			t.Fatalf("the folds moved the die energy: %v J, all posted %v J", gotJ, wantJ)
		}
		if events > posted {
			t.Fatalf("the folds dispatched %d events, all posted %d", events, posted)
		}
	})
}
