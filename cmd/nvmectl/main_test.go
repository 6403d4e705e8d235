package main

import (
	"strings"
	"testing"
)

// TestRun drives the CLI seam: stdout byte for byte on success, the
// exit code and the reason on stderr otherwise.
func TestRun(t *testing.T) {
	const usageHead = "usage:\n  nvmectl list"
	cases := []struct {
		args    string
		code    int
		stdout  string
		errPart string
	}{
		{"list", 0, `Node   Protocol  Model                  Capacity     PowerStates
SSD1   NVMe      Samsung PM9A3          3840GB       3
SSD2   NVMe      Intel D7-P5510         3840GB       3
SSD3   SATA      Intel D3-P4510         1920GB       0
HDD    SATA      Seagate Exos 7E2000    2000GB       0
EVO    SATA      Samsung 860 EVO        1000GB       0
C960   NVMe      Samsung 960 EVO        1000GB       3
`, ""},
		{"id-ctrl SSD2", 0, `mn      : Intel D7-P5510
npss    : 2
ps    0 : mp:25.00W enlat:100us exlat:100us
ps    1 : mp:12.00W enlat:100us exlat:100us
ps    2 : mp:10.00W enlat:100us exlat:100us
`, ""},
		{"get-feature SSD2", 0, "get-feature:0x02 (Power Management), Current value:0x00000000 (PS:0)\n", ""},
		{"set-feature SSD2 2", 0, "set-feature:0x02 (Power Management), value:0x00000002 (PS:2)\n", ""},
		{"apst C960", 0, "get-feature:0x0c (Autonomous Power State Transition), Current value: true\n", ""},
		{"apst C960 on", 0, "set-feature:0x0c (Autonomous Power State Transition), value: true\n", ""},
		{"apst C960 off", 0, "set-feature:0x0c (Autonomous Power State Transition), value: false\n", ""},
		{"set-feature SSD2 9", 1, "", "Invalid Field in Command"},
		{"set-feature SSD2 x", 1, "", `bad power state "x"`},
		{"id-ctrl HDD", 1, "", "is SATA, not NVMe"},
		{"apst C960 maybe", 1, "", `not "maybe"`},
		{"get-feature NOPE", 1, "", `unknown device "NOPE"`},
		{"", 2, "", usageHead},
		{"id-ctrl", 2, "", usageHead},
		{"set-feature SSD2", 2, "", usageHead},
		{"apst", 2, "", usageHead},
		{"bogus", 2, "", usageHead},
		{"-x", 2, "", "flag provided but not defined"},
	}
	for _, tc := range cases {
		t.Run(tc.args, func(t *testing.T) {
			var out, errw strings.Builder
			code := run(strings.Fields(tc.args), &out, &errw)
			if code != tc.code {
				t.Fatalf("exit %d, want %d; stderr: %s", code, tc.code, errw.String())
			}
			if out.String() != tc.stdout {
				t.Errorf("stdout:\n%s\nwant:\n%s", out.String(), tc.stdout)
			}
			if !strings.Contains(errw.String(), tc.errPart) {
				t.Errorf("stderr %q does not contain %q", errw.String(), tc.errPart)
			}
		})
	}
}
