package calib

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"wattio/internal/device"
)

// validModel returns a hand-built model that passes validation.
func validModel() *Model {
	return &Model{
		Class:         "SSD2",
		DeviceModel:   "WattIO NV2000",
		Protocol:      device.NVMe,
		CapacityBytes: 1 << 40,
		States: []State{
			{
				MaxPowerW: 11.5,
				Energy:    Coeffs{ReadOpJ: 9e-6, ReadByteJ: 9e-10, WriteOpJ: 4e-6, WriteByteJ: 3e-9, StaticW: 5},
				Service:   Service{ReadByteS: 3e-10, WriteOpS: 1e-6, WriteByteS: 9e-10},
			},
			{
				MaxPowerW: 9,
				Energy:    Coeffs{ReadByteJ: 1e-9, WriteOpJ: 4e-6, WriteByteJ: 3e-9, StaticW: 5},
				Service:   Service{ReadByteS: 4e-10, WriteOpS: 1e-6, WriteByteS: 1e-9},
			},
		},
	}
}

func TestModelRoundTrip(t *testing.T) {
	m := validModel()
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip diverged:\n%+v\n%+v", m, got)
	}
	// Canonical encoding is a fixed point.
	again, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("Encode(Decode(Encode(m))) is not byte-identical")
	}
	// Save writes the canonical encoding.
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatal("Save does not write the canonical encoding")
	}
}

// TestDecodeRejections: every malformed document fails with an error
// naming what is wrong, mirroring core.Load's hardening.
func TestDecodeRejections(t *testing.T) {
	canon, err := validModel().Encode()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		mutate  func(string) string
		wantSub string
	}{
		{"unknown field", func(s string) string {
			return strings.Replace(s, `"version"`, `"vendor": "x", "version"`, 1)
		}, "unknown field"},
		{"trailing data", func(s string) string { return s + "{}" }, "trailing data"},
		{"version skew", func(s string) string {
			return strings.Replace(s, `"version": 1`, `"version": 99`, 1)
		}, "version 99"},
		{"negative coefficient", func(s string) string {
			return strings.Replace(s, `"static_w": 5`, `"static_w": -5`, 1)
		}, "states[0].static_w"},
		{"nan rejected by json", func(s string) string {
			return strings.Replace(s, `"static_w": 5`, `"static_w": NaN`, 1)
		}, ""},
		{"unknown protocol", func(s string) string {
			return strings.Replace(s, `"protocol": "NVMe"`, `"protocol": "SCSI"`, 1)
		}, `protocol: unknown protocol "SCSI"`},
		{"no states", func(s string) string {
			return s[:strings.Index(s, `"states"`)] + "\"states\": []\n}\n"
		}, "at least one power state"},
		{"zero capacity", func(s string) string {
			return strings.Replace(s, `"capacity_bytes": 1099511627776`, `"capacity_bytes": 0`, 1)
		}, "capacity_bytes"},
		// State 0's read_op_s is already zero, so zeroing read_byte_s
		// leaves the read direction with no service time at all.
		{"zero service", func(s string) string {
			return strings.Replace(s, `"read_byte_s": 3e-10`, `"read_byte_s": 0`, 1)
		}, "read service time is identically zero"},
	}
	for _, tc := range cases {
		doc := tc.mutate(string(canon))
		if doc == string(canon) {
			t.Fatalf("%s: mutation did not change the document", tc.name)
		}
		_, err := Decode([]byte(doc))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantSub)
		}
	}
}

func TestValidateRejectsNonFinite(t *testing.T) {
	m := validModel()
	m.States[0].Energy.ReadOpJ = math.NaN()
	if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "states[0].read_op_j") {
		t.Fatalf("NaN coefficient: %v", err)
	}
	m = validModel()
	m.States[1].Service.WriteByteS = math.Inf(1)
	if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "states[1].write_byte_s") {
		t.Fatalf("Inf coefficient: %v", err)
	}
	m = validModel()
	m.Class = ""
	if err := m.Validate(); err == nil {
		t.Fatal("empty class accepted")
	}
}

// FuzzFittedModelRoundTrip: any input that decodes must re-encode to a
// document that decodes to the same model, and the canonical encoding
// must be a fixed point. Inputs that do not decode must fail cleanly.
func FuzzFittedModelRoundTrip(f *testing.F) {
	canon, err := validModel().Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(canon)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version": 1}`))
	f.Add([]byte(string(canon) + " "))
	f.Add([]byte(strings.Replace(string(canon), `"static_w": 5`, `"static_w": -1`, 1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return // rejected input: fine, as long as it did not panic
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("Decode returned an invalid model: %v", err)
		}
		enc, err := m.Encode()
		if err != nil {
			t.Fatalf("decoded model does not re-encode: %v", err)
		}
		m2, err := Decode(enc)
		if err != nil {
			t.Fatalf("canonical encoding does not decode: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("round trip diverged:\n%+v\n%+v", m, m2)
		}
		enc2, err := m2.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatal("canonical encoding is not a fixed point")
		}
	})
}
