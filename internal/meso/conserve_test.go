package meso

import (
	"math"
	"testing"
	"time"
)

// TestGroupChurnConservation is the ledger-conservation property of a
// scale-out-then-drain-back cycle: membership grows through an idle
// (warming) bucket, the warmed members join the serving bucket, the
// rate steps down mid-run, and the churned members leave again. Beside
// them a parked lane — a bucket of one — parks once on each side of the
// rate step, at a different imposed draw each time. At settle time the
// pool's energy (settled + live + backfill) and IO counts must equal
// the straight integrals of op × members × time and rate × members ×
// time — nothing is lost or double-counted across any membership or
// rate boundary — and the lane's second park must replace its draw,
// not average it with the first.
func TestGroupChurnConservation(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name          string
		rate0, rate1  float64
		base, churned int
		op0, op1      float64 // serving draws before/after the rate step
		warmW         float64
		lane0, lane1  float64 // the lane's imposed draws at its two parks
	}{
		{"small", 1000, 500, 10, 4, 8, 6, 12, 3, 1.5},
		{"big-cohort", 7000, 2500, 96, 32, 9.5, 7.25, 14.6, 2.25, 4.75},
		{"rate-up", 1200, 3600, 5, 1, 6.5, 11, 10, 0.5, 6},
	}
	const bytesPerIO = 4096
	serving := GroupKey{Cohort: 0, State: 1}
	warm := GroupKey{Cohort: 0, State: -1}
	lane := LaneKey(0)
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			p := NewGroupPool(tc.rate0, bytesPerIO)

			var backfillJ float64
			fold := func(spans []BackfillSpan) {
				for _, s := range spans {
					backfillJ += s.Joules
				}
			}

			p.SetCount(serving, tc.base, 0)                      // cohort goes live, uncalibrated
			fold(p.Calibrate(serving, tc.op0, ms(100)))          // probe donates the first point
			p.Impose(lane, 1, tc.lane0, true, ms(150))           // a lane parks
			p.Impose(warm, tc.churned, tc.warmW, false, ms(200)) // scale-out: members warm
			lane0J := p.Impose(lane, 0, 0, true, ms(350))        // the lane rehydrates
			p.Impose(warm, 0, tc.warmW, false, ms(400))          // warm-up done...
			p.SetCount(serving, tc.base+tc.churned, ms(400))     // ...members serve
			p.SetRate(tc.rate1, ms(600))                         // diurnal rate step
			p.Recalibrate(ms(600))                               // old point no longer valid
			p.Impose(lane, 1, tc.lane1, true, ms(650))           // the lane parks again
			fold(p.Calibrate(serving, tc.op1, ms(700)))          // fresh probe measurement
			p.SetCount(serving, tc.base, ms(800))                // drain-back: churned members leave
			lane1J := p.Impose(lane, 0, 0, true, ms(900))        // the lane rehydrates
			laneIOs := p.cohorts[lane.Cohort].ios                // the lane's own IO carry

			if p.Members() != tc.base {
				t.Fatalf("Members() = %d after drain-back, want %d", p.Members(), tc.base)
			}

			gotJ := p.EnergyJ(ms(1000)) + backfillJ
			ios, bytes := p.SettleIO(ms(1000))

			// Independent integrals of the same schedule.
			seg := func(w float64, n int, from, to time.Duration) float64 {
				return w * float64(n) * (to - from).Seconds()
			}
			wantJ := seg(tc.op0, tc.base, 0, ms(400)) + // first point covers [0,100) via backfill
				seg(tc.warmW, tc.churned, ms(200), ms(400)) +
				seg(tc.op0, tc.base+tc.churned, ms(400), ms(600)) +
				seg(tc.op1, tc.base+tc.churned, ms(600), ms(800)) + // [600,700) via backfill
				seg(tc.op1, tc.base, ms(800), ms(1000))
			wantLane0J := seg(tc.lane0, 1, ms(150), ms(350))
			wantLane1J := seg(tc.lane1, 1, ms(650), ms(900)) // replaced, not mean(lane0, lane1)
			wantJ += wantLane0J + wantLane1J
			wantLaneIO := seg(tc.rate0, 1, ms(150), ms(350)) + seg(tc.rate1, 1, ms(650), ms(900))
			wantIO := seg(tc.rate0, tc.base, 0, ms(400)) +
				seg(tc.rate0, tc.base+tc.churned, ms(400), ms(600)) +
				seg(tc.rate1, tc.base+tc.churned, ms(600), ms(800)) +
				seg(tc.rate1, tc.base, ms(800), ms(1000))

			if math.Abs(lane0J-wantLane0J) > 1e-12 || math.Abs(lane1J-wantLane1J) > 1e-12 {
				t.Fatalf("lane spans settled %.12f J and %.12f J, want %.12f J and %.12f J",
					lane0J, lane1J, wantLane0J, wantLane1J)
			}
			if float64(laneIOs) > wantLaneIO+1e-9 || float64(laneIOs) < wantLaneIO-1 {
				t.Fatalf("lane IO %d, want %.3f (within 1)", laneIOs, wantLaneIO)
			}

			if math.Abs(gotJ-wantJ) > 1e-9*wantJ {
				t.Fatalf("energy ledger leaked across churn: got %.12f J, want %.12f J", gotJ, wantJ)
			}
			// IO integration truncates with one fractional carry per
			// cohort, so a count may sit one below the real-valued
			// integral. The lane is a cohort of its own.
			if cohortIOs := ios - laneIOs; float64(cohortIOs) > wantIO+1e-9 || float64(cohortIOs) < wantIO-1 {
				t.Fatalf("IO ledger leaked across churn: got %d, want %.3f (within 1)", cohortIOs, wantIO)
			}
			if bytes != ios*bytesPerIO {
				t.Fatalf("bytes %d not ios %d x %d", bytes, ios, bytesPerIO)
			}
			// The ledger is drained: settling again accrues only new time.
			ios2, _ := p.SettleIO(ms(1000))
			if ios2 != 0 {
				t.Fatalf("second settle at the same instant credited %d IOs", ios2)
			}
		})
	}
}
