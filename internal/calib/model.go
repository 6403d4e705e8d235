package calib

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"wattio/internal/device"
)

// ModelVersion guards fitted-model files against silently reading
// future formats, mirroring core's planning-model persistence.
const ModelVersion = 1

// Coeffs is one power state's fitted energy model: every IO costs a
// per-op plus per-byte energy in its direction, and the device burns
// StaticW continuously. All coefficients are non-negative by
// construction (the NNLS fit) and by validation (a loaded file).
type Coeffs struct {
	ReadOpJ    float64
	ReadByteJ  float64
	WriteOpJ   float64
	WriteByteJ float64
	StaticW    float64
}

// Service is one power state's fitted service-time model, per IO
// direction: seconds per op plus seconds per byte at saturation.
type Service struct {
	ReadOpS    float64
	ReadByteS  float64
	WriteOpS   float64
	WriteByteS float64
}

// State is one fitted power state. MaxPowerW carries the mechanical
// descriptor cap (what PowerStates() advertises; governors read it to
// decide whether stepping up fits a budget); it is 0 for classes
// without host-selectable states.
type State struct {
	MaxPowerW float64
	Energy    Coeffs
	Service   Service
}

// Model is a fitted device model: enough coefficients to stand in for
// a mechanistic simulator behind the device.Device interface.
type Model struct {
	// Class is the catalog profile the model was fitted from (and the
	// fleet profile a fitted device serves as).
	Class string
	// DeviceModel is the marketing model string of the source class.
	DeviceModel string
	// Protocol is the host interface of the source class.
	Protocol device.Protocol
	// CapacityBytes is the addressable capacity.
	CapacityBytes int64
	// States holds one fitted entry per power state, ps0 first.
	States []State
}

// modelDoc is the on-disk form. Field names are part of the format.
type modelDoc struct {
	Version       int        `json:"version"`
	Class         string     `json:"class"`
	DeviceModel   string     `json:"device_model"`
	Protocol      string     `json:"protocol"`
	CapacityBytes int64      `json:"capacity_bytes"`
	States        []stateDoc `json:"states"`
}

type stateDoc struct {
	MaxPowerW  float64 `json:"max_power_w"`
	ReadOpJ    float64 `json:"read_op_j"`
	ReadByteJ  float64 `json:"read_byte_j"`
	WriteOpJ   float64 `json:"write_op_j"`
	WriteByteJ float64 `json:"write_byte_j"`
	StaticW    float64 `json:"static_w"`
	ReadOpS    float64 `json:"read_op_s"`
	ReadByteS  float64 `json:"read_byte_s"`
	WriteOpS   float64 `json:"write_op_s"`
	WriteByteS float64 `json:"write_byte_s"`
}

// modelErr builds a validation error naming the offending model path.
func modelErr(path, format string, args ...any) error {
	return fmt.Errorf("calib: %s: %s", path, fmt.Sprintf(format, args...))
}

// coeff checks one named coefficient: finite and non-negative. NaN or
// a negative value would silently corrupt every downstream energy sum,
// so both are rejected with the coefficient's path.
func coeff(path string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return modelErr(path, "non-finite coefficient %v", v)
	}
	if v < 0 {
		return modelErr(path, "negative coefficient %v", v)
	}
	return nil
}

// Validate checks the model's semantic invariants: the same checks a
// decoded file passes, so a hand-built model and a loaded one meet an
// identical contract.
func (m *Model) Validate() error {
	if m.Class == "" {
		return modelErr("class", "fitted model needs a device class")
	}
	if m.Protocol != device.NVMe && m.Protocol != device.SATA {
		return modelErr("protocol", "unknown protocol %d", int(m.Protocol))
	}
	if m.CapacityBytes <= 0 {
		return modelErr("capacity_bytes", "capacity %d must be positive", m.CapacityBytes)
	}
	if len(m.States) == 0 {
		return modelErr("states", "fitted model needs at least one power state")
	}
	for i, st := range m.States {
		p := fmt.Sprintf("states[%d]", i)
		for _, c := range []struct {
			name string
			v    float64
		}{
			{"max_power_w", st.MaxPowerW},
			{"read_op_j", st.Energy.ReadOpJ},
			{"read_byte_j", st.Energy.ReadByteJ},
			{"write_op_j", st.Energy.WriteOpJ},
			{"write_byte_j", st.Energy.WriteByteJ},
			{"static_w", st.Energy.StaticW},
			{"read_op_s", st.Service.ReadOpS},
			{"read_byte_s", st.Service.ReadByteS},
			{"write_op_s", st.Service.WriteOpS},
			{"write_byte_s", st.Service.WriteByteS},
		} {
			if err := coeff(p+"."+c.name, c.v); err != nil {
				return err
			}
		}
		// A direction with zero per-op and per-byte service time would
		// complete IO in zero virtual time — an infinite-throughput
		// device that livelocks any closed loop driving it.
		if st.Service.ReadOpS == 0 && st.Service.ReadByteS == 0 {
			return modelErr(p+".read_op_s", "read service time is identically zero")
		}
		if st.Service.WriteOpS == 0 && st.Service.WriteByteS == 0 {
			return modelErr(p+".write_op_s", "write service time is identically zero")
		}
	}
	return nil
}

// Encode returns the model's canonical encoding: fixed field order,
// two-space indent, trailing newline. Decode(Encode(m)) round-trips
// exactly, so canonical files can serve as golden inputs.
func (m *Model) Encode() ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	doc := modelDoc{
		Version:       ModelVersion,
		Class:         m.Class,
		DeviceModel:   m.DeviceModel,
		Protocol:      m.Protocol.String(),
		CapacityBytes: m.CapacityBytes,
	}
	for _, st := range m.States {
		doc.States = append(doc.States, stateDoc{
			MaxPowerW:  st.MaxPowerW,
			ReadOpJ:    st.Energy.ReadOpJ,
			ReadByteJ:  st.Energy.ReadByteJ,
			WriteOpJ:   st.Energy.WriteOpJ,
			WriteByteJ: st.Energy.WriteByteJ,
			StaticW:    st.Energy.StaticW,
			ReadOpS:    st.Service.ReadOpS,
			ReadByteS:  st.Service.ReadByteS,
			WriteOpS:   st.Service.WriteOpS,
			WriteByteS: st.Service.WriteByteS,
		})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Save writes the model's canonical encoding.
func (m *Model) Save(w io.Writer) error {
	b, err := m.Encode()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// Decode reads a fitted-model document with the same hardening as
// core.Load: unknown fields, trailing data, version skew, and invalid
// coefficients (NaN, negative) are all errors naming the offending
// path — a malformed file must never load as a silently wrong device.
func Decode(data []byte) (*Model, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var doc modelDoc
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("calib: decoding fitted model: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("calib: trailing data after fitted-model document")
	}
	if doc.Version != ModelVersion {
		return nil, fmt.Errorf("calib: fitted-model version %d, this build reads %d", doc.Version, ModelVersion)
	}
	m := &Model{
		Class:         doc.Class,
		DeviceModel:   doc.DeviceModel,
		CapacityBytes: doc.CapacityBytes,
	}
	switch doc.Protocol {
	case device.NVMe.String():
		m.Protocol = device.NVMe
	case device.SATA.String():
		m.Protocol = device.SATA
	default:
		return nil, modelErr("protocol", "unknown protocol %q", doc.Protocol)
	}
	for _, st := range doc.States {
		m.States = append(m.States, State{
			MaxPowerW: st.MaxPowerW,
			Energy: Coeffs{
				ReadOpJ:    st.ReadOpJ,
				ReadByteJ:  st.ReadByteJ,
				WriteOpJ:   st.WriteOpJ,
				WriteByteJ: st.WriteByteJ,
				StaticW:    st.StaticW,
			},
			Service: Service{
				ReadOpS:    st.ReadOpS,
				ReadByteS:  st.ReadByteS,
				WriteOpS:   st.WriteOpS,
				WriteByteS: st.WriteByteS,
			},
		})
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}
