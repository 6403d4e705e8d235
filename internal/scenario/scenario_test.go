package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"wattio/internal/serve"
)

// TestBuiltInsValid pins the contract every built-in must satisfy:
// it validates, its canonical encoding is a parse fixed point, and it
// builds a serving spec.
func TestBuiltInsValid(t *testing.T) {
	for _, name := range BuiltInNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			sp := BuiltIn(name)
			if sp == nil {
				t.Fatal("BuiltIn returned nil for a listed name")
			}
			if sp.Name != name {
				t.Errorf("built-in %q names itself %q", name, sp.Name)
			}
			if err := sp.Validate(); err != nil {
				t.Fatalf("built-in does not validate: %v", err)
			}
			canon, err := sp.Canonical()
			if err != nil {
				t.Fatal(err)
			}
			sp2, err := Parse(bytes.NewReader(canon))
			if err != nil {
				t.Fatalf("canonical form does not re-parse: %v", err)
			}
			canon2, err := sp2.Canonical()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(canon, canon2) {
				t.Fatalf("canonical encoding is not a fixed point:\n--- first\n%s\n--- second\n%s", canon, canon2)
			}

			if _, err := sp.ServeSpec(time.Second); err != nil {
				t.Fatalf("ServeSpec: %v", err)
			}
		})
	}
}

// TestScenarioFilesCanonical pins the built-ins to the files they are
// read from: every scenarios/*.json is already in canonical form, and
// BuiltInNames lists exactly those files. Rewrite a file in canonical
// form with `powerfleet scenario -w`.
func TestScenarioFilesCanonical(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := Parse(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		canon, err := sp.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, canon) {
			t.Errorf("%s is not canonical (rewrite it with powerfleet scenario -w)", path)
		}
		names = append(names, strings.TrimSuffix(filepath.Base(path), ".json"))
	}
	if got := BuiltInNames(); !slices.Equal(got, names) {
		t.Errorf("BuiltInNames() = %v, files on disk %v", got, names)
	}
}

// TestBuiltInFresh pins that BuiltIn hands out independent copies:
// callers (perfbench's workloads, override layers, tests) mutate what
// it returns.
func TestBuiltInFresh(t *testing.T) {
	a := BuiltIn("stepped-budget")
	size, dev := a.Fleet.Size, a.Fleet.Faults[0].Device
	a.Fleet.Size++
	a.Fleet.Faults[0].Device = "mutated"
	b := BuiltIn("stepped-budget")
	if b.Fleet.Size != size || b.Fleet.Faults[0].Device != dev {
		t.Errorf("second BuiltIn saw the first's mutation: size %d, fault device %q", b.Fleet.Size, b.Fleet.Faults[0].Device)
	}
}

func TestDefault(t *testing.T) {
	if sp := Default("fleet"); sp.Name != "fleet" || sp.Experiment != "fleet" {
		t.Errorf("Default(fleet) = %q/%q", sp.Name, sp.Experiment)
	}
	if sp := Default("chaos"); sp.Name != "chaos" {
		t.Errorf("Default(chaos) = %q", sp.Name)
	}
	sp := Default("fig4")
	if sp.Name != "paper-default" || sp.Experiment != "fig4" {
		t.Errorf("Default(fig4) = %q/%q", sp.Name, sp.Experiment)
	}
	if err := sp.Validate(); err != nil {
		t.Errorf("Default(fig4) does not validate: %v", err)
	}
}

func TestParseStrict(t *testing.T) {
	minimal := `{"version":2,"name":"m","experiment":"all","seed":0}`
	cases := []struct {
		name, body, wantErr string
	}{
		{"unknown field", `{"version":2,"name":"m","experiment":"all","seed":0,"sizee":3}`, "sizee"},
		{"nested unknown field", `{"version":2,"name":"m","experiment":"fleet","seed":0,"fleet":{"sizee":8}}`, "sizee"},
		{"trailing data", minimal + `{}`, "trailing data"},
		{"wrong version", `{"version":99,"name":"m","experiment":"all","seed":0}`, "version"},
		{"stale v1 hints migrate", `{"version":1,"name":"m","experiment":"all","seed":0}`, `set "version": 2`},
		{"missing name", `{"version":2,"experiment":"all","seed":0}`, "name"},
		{"numeric duration", `{"version":2,"name":"m","experiment":"all","seed":0,"runtime":250}`, "string"},
		{"negative duration", `{"version":2,"name":"m","experiment":"all","seed":0,"runtime":"-5s"}`, "negative"},
		{"not json", `hello`, "scenario"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(tc.body))
			if err == nil {
				t.Fatalf("accepted: %s", tc.body)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
	if _, err := Parse(strings.NewReader(minimal)); err != nil {
		t.Fatalf("minimal spec rejected: %v", err)
	}
}

// TestParseRejectsRemovedFields: each spec field that used to take one
// value in every caller is now a constant of the engine or the
// experiment, belonged to a fault kind that no longer exists, or was a
// stanza no run read (the single-device devices and workload lists,
// which the paper's experiments fix in code), and a file that still
// carries one fails Parse with an error naming it, so it never runs
// with a silently changed meaning. Each case sets the field to the
// value it is now fixed at, or to a value it once took.
func TestParseRejectsRemovedFields(t *testing.T) {
	const head = `{"version":2,"name":"m","experiment":"fleet","seed":0,`
	fleet := func(field string) string { return head + `"fleet":{` + field + `}}` }
	calib := func(field string) string { return head + `"fleet":{"calib":{"enable":true,` + field + `}}}` }
	grid := func(field string) string { return head + `"grid":{"budgets":["max"],` + field + `}}` }
	// The workload stanza is gone as a whole, so a file carrying one of
	// its removed fields fails on the stanza, and the error names that.
	workload := func(field string) string {
		return head + `"workload":{"op":"write","chunk_bytes":4096,"depth":1,"runtime":"1s",` + field + `}}`
	}
	window := func(field string) string {
		return head + `"fleet":{"size":8,"faults":[{"device":"SSD2#00001","windows":[{"kind":"dropout","start":"0s","dur":"1s",` + field + `}]}]}}`
	}
	cases := []struct{ path, body string }{
		{"fleet.shards", fleet(`"shards":4`)},
		{"fleet.active", fleet(`"active":1`)},
		{"fleet.arrival", fleet(`"arrival":"poisson"`)},
		{"fleet.read", fleet(`"read":false`)},
		{"fleet.seq", fleet(`"seq":false`)},
		{"fleet.chunk_bytes", fleet(`"chunk_bytes":262144`)},
		{"fleet.depth", fleet(`"depth":64`)},
		{"fleet.batch", fleet(`"batch":8`)},
		{"fleet.queue_cap", fleet(`"queue_cap":256`)},
		{"fleet.cap_tol_frac", fleet(`"cap_tol_frac":0.1`)},
		{"fleet.skip_invariants", fleet(`"skip_invariants":false`)},
		{"workload.arrival", workload(`"arrival":"closed"`)},
		{"workload.rate_iops", workload(`"rate_iops":1000`)},
		{"devices", head + `"devices":[{"profile":"SSD2"}]}`},
		{"fleet.calib.point_runtime", calib(`"point_runtime":"1.5s"`)},
		{"fleet.calib.warmup", calib(`"warmup":"600ms"`)},
		{"fleet.calib.seed", calib(`"seed":42`)},
		{"fleet.calib.folds", calib(`"folds":5`)},
		{"chaos", head + `"chaos":{"gov_budget_w":11}}`},
		{"grid.rates", grid(`"rates":[7000]`)},
		{"grid.fault_fracs", grid(`"fault_fracs":[0.1]`)},
		{"grid.replicas", grid(`"replicas":[2]`)},
		{"fleet.faults[0].windows[0].factor", window(`"factor":3`)},
		{"fleet.faults[0].windows[0].extra", window(`"extra":"2ms"`)},
	}
	for _, tc := range cases {
		t.Run(tc.path, func(t *testing.T) {
			field := tc.path[strings.LastIndex(tc.path, ".")+1:]
			if strings.HasPrefix(tc.path, "workload.") {
				field = "workload"
			}
			_, err := Parse(strings.NewReader(tc.body))
			if err == nil || !strings.Contains(err.Error(), `"`+field+`"`) {
				t.Fatalf("%s: Parse error %v, want one naming %q", tc.body, err, field)
			}
		})
	}
}

// TestValidateRejectsWithPath checks each semantic rejection names the
// offending spec path, so a bad file is fixable from the error alone.
func TestValidateRejectsWithPath(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"no name", func(s *Spec) { s.Name = " " }, "name"},
		{"no experiment", func(s *Spec) { s.Experiment = "" }, "experiment"},
		{"bad scale", func(s *Spec) { s.Scale = "huge" }, "scale"},
		{"negative bytes", func(s *Spec) { s.TotalBytes = -1 }, "total_bytes"},
		{"bad fault kind", func(s *Spec) { s.Fleet.Faults[0].Windows[0].Kind = "meteor" }, "fleet.faults[0].windows[0].kind"},
		{"zero fault dur", func(s *Spec) { s.Fleet.Faults[0].Windows[0].Dur = 0 }, "fleet.faults[0].windows[0].dur"},
		{"bad budget", func(s *Spec) { s.Fleet.Budget = "0s:junk" }, "fleet.budget"},
		{"budget late start", func(s *Spec) { s.Fleet.Budget = "1s:10pd" }, "fleet.budget"},
		{"negative control period", func(s *Spec) { s.Fleet.ControlPeriod = -1 }, "fleet.control_period"},
		{"unknown fleet profile", func(s *Spec) { s.Fleet.Profiles = []string{"NOPE"}; s.Fleet.Faults = nil }, "fleet.profiles[0]"},
		{"unknown fleet instance", func(s *Spec) { s.Fleet.Faults[0].Device = "SSD2#99999" }, "fleet.faults[0].device"},
		{"empty fault windows", func(s *Spec) { s.Fleet.Faults[0].Windows = nil }, "fleet.faults[0].windows"},
		{"indivisible replicas", func(s *Spec) { s.Fleet.Size = 10; s.Fleet.Replicas = 4; s.Fleet.Faults = nil }, "fleet.replicas"},
		{"oversize fleet", func(s *Spec) { s.Fleet.Size = maxFleetSize + 2; s.Fleet.Faults = nil }, "fleet.size"},
		{"fault frac", func(s *Spec) { s.Fleet.FaultFrac = 1.5 }, "fleet.fault_frac"},
		{"negative group min", func(s *Spec) { s.Fleet.Meso = &MesoSpec{Enable: true, GroupMin: -4} }, "fleet.meso.group_min"},
		{"negative probes", func(s *Spec) { s.Fleet.Meso = &MesoSpec{Enable: true, GroupMin: 4, Probes: -1} }, "fleet.meso.probes"},
		{"probes without group", func(s *Spec) { s.Fleet.Meso = &MesoSpec{Enable: true, Probes: 2} }, "fleet.meso.probes"},
		{"probes at group min", func(s *Spec) { s.Fleet.Meso = &MesoSpec{Enable: true, GroupMin: 4, Probes: 4} }, "fleet.meso.probes"},
		{"default probes at group min", func(s *Spec) { s.Fleet.Meso = &MesoSpec{Enable: true, GroupMin: 2} }, "fleet.meso.probes"},
		{"arrivals with rate", func(s *Spec) {
			s.Fleet.RateIOPS = 500
			s.Fleet.Arrivals = []RateStepSpec{{At: 0, RateIOPS: 500}}
		}, "fleet.rate_iops"},
		{"arrivals late start", func(s *Spec) {
			s.Fleet.RateIOPS = 0
			s.Fleet.Arrivals = []RateStepSpec{{At: Duration(time.Second), RateIOPS: 500}}
		}, "fleet.arrivals[0].at"},
		{"arrivals zero rate", func(s *Spec) {
			s.Fleet.RateIOPS = 0
			s.Fleet.Arrivals = []RateStepSpec{{At: 0, RateIOPS: 0}}
		}, "fleet.arrivals[0].rate_iops"},
		{"arrivals non-increasing", func(s *Spec) {
			s.Fleet.RateIOPS = 0
			s.Fleet.Arrivals = []RateStepSpec{{At: 0, RateIOPS: 1}, {At: 0, RateIOPS: 2}}
		}, "fleet.arrivals[1].at"},
		{"churn unknown cohort", func(s *Spec) {
			s.Fleet.Churn = []ChurnEventSpec{{At: Duration(time.Second), Profile: "HDD", Add: 1}}
		}, "fleet.churn[0].profile"},
		{"churn at zero", func(s *Spec) {
			s.Fleet.Churn = []ChurnEventSpec{{At: 0, Profile: "SSD2", Add: 1}}
		}, "fleet.churn[0].at"},
		{"churn non-increasing", func(s *Spec) {
			s.Fleet.Churn = []ChurnEventSpec{
				{At: Duration(time.Second), Profile: "SSD2", Add: 1},
				{At: Duration(time.Second), Profile: "SSD2", Remove: 1},
			}
		}, "fleet.churn[1].at"},
		{"churn empty event", func(s *Spec) {
			s.Fleet.Churn = []ChurnEventSpec{{At: Duration(time.Second), Profile: "SSD2"}}
		}, "fleet.churn[0]"},
		{"churn negative warmup", func(s *Spec) {
			s.Fleet.Churn = []ChurnEventSpec{{At: Duration(time.Second), Profile: "SSD2", Add: 1, Warmup: Duration(-time.Millisecond)}}
		}, "fleet.churn[0].warmup"},
		{"churn empties cohort", func(s *Spec) {
			s.Fleet.Churn = []ChurnEventSpec{{At: Duration(time.Second), Profile: "SSD2", Remove: 64}}
		}, "fleet.churn[0].remove"},
		// Stanzas the serving engine refuses, checked by its own rules.
		{"negative budget watts", func(s *Spec) { s.Fleet.Budget = "0s:-5" }, "fleet.budget[0]"},
		{"zero per-device budget", func(s *Spec) { s.Fleet.Budget = "0s:0pd" }, "fleet.budget[0]"},
		{"NaN budget", func(s *Spec) { s.Fleet.Budget = "0s:NaN" }, "fleet.budget[0]"},
		{"infinite budget step", func(s *Spec) { s.Fleet.Budget = "0s:14pd,1s:Inf" }, "fleet.budget[1]"},
		{"churn past the quick horizon", func(s *Spec) {
			s.Runtime, s.Scale = 0, "quick"
			s.Fleet.Churn = []ChurnEventSpec{{At: Duration(5 * time.Second), Profile: "SSD2", Add: 1}}
		}, "fleet.churn[0].at"},
		{"budget step past the quick horizon", func(s *Spec) {
			s.Runtime, s.Scale = 0, "quick"
			s.Fleet.Budget = "0s:14pd,5s:10pd"
		}, "fleet.budget[1]"},
		{"control period past the quick horizon", func(s *Spec) {
			s.Runtime, s.Scale = 0, "quick"
			s.Fleet.ControlPeriod = Duration(3 * time.Second)
		}, "fleet.control_period"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := BuiltIn("stepped-budget")
			tc.mut(sp)
			err := sp.Validate()
			if err == nil {
				t.Fatal("mutated spec accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name path %q", err, tc.want)
			}
		})
	}

}

// TestValidateRejectsTimesPastRuntime: with the spec-level runtime set,
// every scheduled instant the serving engine rejects as outside its
// horizon fails validation instead, naming its path. Without a runtime
// the run's scale supplies the horizon, and validation holds the same
// instants to it: each fails at quick scale (2 s) and validates at
// paper scale (1 min).
func TestValidateRejectsTimesPastRuntime(t *testing.T) {
	sec := Duration(time.Second)
	cases := []struct {
		name string
		mut  func(*FleetSpec)
		want string
	}{
		{"churn at", func(f *FleetSpec) {
			f.Churn = []ChurnEventSpec{{At: 2 * sec, Profile: "SSD2", Add: 1}}
		}, "fleet.churn[0].at"},
		{"rate step at", func(f *FleetSpec) {
			f.Arrivals = []RateStepSpec{{At: 0, RateIOPS: 500}, {At: 2 * sec, RateIOPS: 800}}
		}, "fleet.arrivals[1].at"},
		{"budget step", func(f *FleetSpec) { f.Budget = "0s:14pd,2s:10pd" }, "fleet.budget"},
		{"warm-up end", func(f *FleetSpec) {
			f.Churn = []ChurnEventSpec{{At: sec / 2, Profile: "SSD2", Add: 1, Warmup: 2 * sec}}
		}, "fleet.churn[0].warmup"},
		{"control period", func(f *FleetSpec) { f.ControlPeriod = 3 * sec }, "fleet.control_period"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := &Spec{Version: Version, Name: "t", Experiment: "fleet", Runtime: sec, Fleet: &FleetSpec{Size: 8}}
			tc.mut(sp.Fleet)
			err := sp.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v does not name path %q", err, tc.want)
			}
			// The engine agrees: the same stanza fails to run.
			ss, err := sp.ServeSpec(sp.Runtime.D())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := serve.Run(ss); err == nil {
				t.Fatal("serve.Run accepted the spec validation rejects")
			}
			sp.Runtime = 0
			if err := sp.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("without a runtime at quick scale: error %v does not name path %q", err, tc.want)
			}
			sp.Scale = "paper"
			if err := sp.Validate(); err != nil {
				t.Fatalf("without a runtime at paper scale: %v", err)
			}
		})
	}
}

// TestScenarioFilesValidAtBothScales: every committed spec file
// validates at quick and at paper scale, since powerbench -scale
// re-validates a spec under either.
func TestScenarioFilesValidAtBothScales(t *testing.T) {
	for _, name := range BuiltInNames() {
		for _, scale := range []string{"quick", "paper"} {
			sp := BuiltIn(name)
			sp.Scale = scale
			if err := sp.Validate(); err != nil {
				t.Errorf("%s at %s scale: %v", name, scale, err)
			}
		}
	}
}

// TestCloneIndependence: mutating a clone must not leak into the
// built-in it was copied from (the CLI's override layer relies on it).
func TestCloneIndependence(t *testing.T) {
	a := BuiltIn("stepped-budget")
	b := a.Clone()
	b.Fleet.Size = 7
	b.Fleet.Faults[0].Device = "mutated"
	if a.Fleet.Size == 7 || a.Fleet.Faults[0].Device == "mutated" {
		t.Fatal("Clone shares state with its source")
	}
}

// TestServeSpecDefaults pins the flag-free fleet materialization: 64
// devices at 7000 IOPS under the stepped curtail-and-recover schedule.
func TestServeSpecDefaults(t *testing.T) {
	sp := &Spec{Version: Version, Name: "d", Experiment: "fleet", Seed: 1}
	ss, err := sp.ServeSpec(3 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Size != 64 || ss.RateIOPS != 7000 {
		t.Fatalf("defaults: %+v", ss)
	}
	if len(ss.Budget) != 3 || ss.Budget[1].At != time.Second || ss.Budget[2].At != 2*time.Second {
		t.Fatalf("stepped default budget: %+v", ss.Budget)
	}
	if ss.Budget[0].FleetW != 14.6*64 {
		t.Fatalf("high step: %v", ss.Budget[0].FleetW)
	}

	sp.Fleet = &FleetSpec{Budget: "max"}
	ss, err = sp.ServeSpec(3 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Budget != nil {
		t.Fatalf("budget \"max\" should leave the schedule nil, got %+v", ss.Budget)
	}
}

// TestServeSpecMeso pins the meso stanza's mapping: absent or disabled
// leaves the serving tier off, enabled carries the group settings
// through.
func TestServeSpecMeso(t *testing.T) {
	sp := &Spec{Version: Version, Name: "m", Experiment: "meso", Seed: 1,
		Fleet: &FleetSpec{Budget: "max"}}
	ss, err := sp.ServeSpec(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Meso {
		t.Fatal("meso on without a stanza")
	}

	sp.Fleet.Meso = &MesoSpec{GroupMin: 8, Probes: 3}
	if ss, err = sp.ServeSpec(time.Second); err != nil {
		t.Fatal(err)
	}
	if ss.Meso || ss.MesoGroupMin != 0 || ss.MesoProbes != 0 {
		t.Fatalf("disabled stanza leaked into serve spec: %+v", ss)
	}

	sp.Fleet.Meso.Enable = true
	if ss, err = sp.ServeSpec(time.Second); err != nil {
		t.Fatal(err)
	}
	if !ss.Meso || ss.MesoGroupMin != 8 || ss.MesoProbes != 3 {
		t.Fatalf("meso stanza mapping: %+v", ss)
	}
}
