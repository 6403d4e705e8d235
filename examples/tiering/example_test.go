package main

// Example absorbs the quiet period's writes and flushes them home.
func Example() {
	main()
	// Output:
	// quiet period: spin the HDD down
	//   HDD power: 1.10 W (spun down; awake idle is 3.76 W)
	//   absorbed 200 writes (50 MiB) into the SSD log
	//   write latency: avg 639µs, worst 639µs — no spin-up stall (would be ~8.5 s)
	//   HDD still spun down: true
	//
	// busy period: wake the disk and flush the log home
	//   flush of 200 blocks finished in 8.595s (includes the 8.5 s spin-up)
	//   pending bytes after flush: 0
	//   HDD power: 3.76 W (awake)
}
