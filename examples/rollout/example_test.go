package main

// Example stages the rollout, contains the failing domain and finishes
// it.
func Example() {
	main()
	// Output:
	// stage 1: enable two domains, spread across sub-racks
	//   enabled A1
	//   enabled B1
	//
	// rack draw: 109.2 W avg (physical breaker 130 W, DR budget 95 W)
	// audit: B1 draws 29.7 W avg, expected ≤ 22 W — control failure localized
	//   halted B1 and re-applied caps via fallback
	//
	// rack draw: 100.3 W avg (physical breaker 130 W, DR budget 95 W)
	// after containment: failing domains: 0
	//
	// stage 2: confidence restored, enable the remaining domains
	//   enabled B1
	//   enabled A2
	//   enabled B2
	//
	// final: 4/4 domains adaptive, rack 81.9 W avg — DR budget 95 W MET
	// (uncapped, this rack draws ~118 W of storage power at full write load)
}
