package main

// Example builds both SSD models, plans the fleet frontier and steps
// the budget controller through four budgets.
func Example() {
	main()
	// Output:
	// building power-throughput models (random write grid)...
	//   SSD1: 108 operating points, power 4.0-9.1 W (dynamic range 55.6%)
	//   SSD2: 108 operating points, power 6.5-15.8 W (dynamic range 58.8%)
	//
	// SSD1 curtailment for a 20% power cut:
	//   from SSD1/ps0/randwrite-256KiB-qd64: 7.88 W, 3.30 GiB/s
	//   to   SSD1/ps2/randwrite-1024KiB-qd1: 6.30 W, 2.08 GiB/s
	//   curtail 1.22 GiB/s of best-effort load; keep 63% of throughput
	//
	// fleet Pareto frontier: 73 assignments from 10.6 W to 23.9 W
	//
	// budget controller:
	//    25.0 W budget → 23.9 W, 6946 MB/s:  SSD1→ps0/16KiB/qd128  SSD2→ps0/16KiB/qd128
	//    20.0 W budget → 19.9 W, 6166 MB/s:  SSD1→ps0/64KiB/qd64  SSD2→ps1/256KiB/qd128
	//    16.0 W budget → 16.0 W, 4485 MB/s:  SSD1→ps0/2048KiB/qd64  SSD2→ps2/16KiB/qd1
	//    13.0 W budget → 12.8 W, 2573 MB/s:  SSD1→ps2/1024KiB/qd1  SSD2→ps2/4KiB/qd1
}
