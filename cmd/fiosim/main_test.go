package main

import (
	"strings"
	"testing"
	"time"
)

func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		err  bool
	}{
		{"4k", 4096, false},
		{"256K", 256 << 10, false},
		{"2m", 2 << 20, false},
		{"1M", 1 << 20, false},
		{"4g", 4 << 30, false},
		{"1G", 1 << 30, false},
		{"512", 512, false},
		{"", 0, true},
		{"abc", 0, true},
		{"-4k", 0, true},
		{"0", 0, true},
		{"k", 0, true},
	}
	for _, tc := range cases {
		got, err := parseSize(tc.in)
		if tc.err {
			if err == nil {
				t.Errorf("parseSize(%q) = %d, want error", tc.in, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("parseSize(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
	}
}

func TestFmtBytes(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{512, "512B"},
		{1 << 20, "1.0MiB"},
		{1536 << 10, "1.5MiB"},
		{4 << 30, "4.0GiB"},
	}
	for _, tc := range cases {
		if got := fmtBytes(tc.in); got != tc.want {
			t.Errorf("fmtBytes(%d) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestUs(t *testing.T) {
	if got := us(1500 * time.Nanosecond); got != 1.5 {
		t.Errorf("us = %v, want 1.5", got)
	}
}

// TestRunExitCodes: a job the device can run exits 0 with its report;
// a job it cannot run exits 1 with one "fiosim:" line naming the
// reason, never a stack trace; a malformed command line exits 2.
func TestRunExitCodes(t *testing.T) {
	short := []string{"-runtime", "20ms", "-size", "1m"}
	cases := []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-bs", "4k", "-iodepth", "4"}, 0, "power (W)"},
		{[]string{"-iodepth", "0"}, 1, "fiosim: workload: depth 0 must be positive"},
		{[]string{"-iodepth", "-3"}, 1, "fiosim: workload: depth -3 must be positive"},
		{[]string{"-bs", "1000"}, 1, "fiosim: workload: block size 1000 invalid"},
		{[]string{"-bs", "9g"}, 1, "fiosim: block size 9663676416 exceeds the 268435456 bytes SSD2 stages"},
		{[]string{"-device", "HDD", "-bs", "9g"}, 1, "fiosim: block size 9663676416 exceeds the 134217728 bytes HDD stages"},
		{[]string{"-rw", "append"}, 1, `fiosim: unknown -rw "append"`},
		{[]string{"-device", "NOPE"}, 1, `fiosim: unknown device "NOPE"`},
		{[]string{"-ps", "9"}, 1, "fiosim: set power state"},
		{[]string{"-bogus"}, 2, "flag provided but not defined"},
	}
	for _, tc := range cases {
		var out, errw strings.Builder
		code := run(append(tc.args, short...), &out, &errw)
		got := out.String() + errw.String()
		if code != tc.code || !strings.Contains(got, tc.want) {
			t.Errorf("%v: exit %d, want %d with %q; output:\n%s", tc.args, code, tc.code, tc.want, got)
		}
		if code == 1 && strings.Count(strings.TrimSpace(errw.String()), "\n") > 0 {
			t.Errorf("%v: error is more than one line:\n%s", tc.args, errw.String())
		}
	}
}
