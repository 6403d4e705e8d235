package measure

import (
	"bytes"
	"testing"
)

// FuzzDecodeFrame hardens the serial-frame parser against arbitrary
// wire bytes: it must never panic, and any frame it does accept must
// re-encode to the same bytes (round-trip integrity).
func FuzzDecodeFrame(f *testing.F) {
	f.Add(AppendFrame(nil, 0, []int32{0}))
	f.Add(AppendFrame(nil, 65535, []int32{8388607, -8388608}))
	f.Add([]byte{0xAA, 0x55, 0x00, 0x01, 0x02})
	f.Add(bytes.Repeat([]byte{0xAA}, 64))
	f.Fuzz(func(t *testing.T, wire []byte) {
		seq, codes, n, err := DecodeFrameInto(wire, nil)
		if err != nil {
			return
		}
		if n <= 0 || n > len(wire) {
			t.Fatalf("consumed %d of %d bytes", n, len(wire))
		}
		re := AppendFrame(nil, seq, codes)
		if !bytes.Equal(re, wire[:n]) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", re, wire[:n])
		}
	})
}

// FuzzRoundTrip asserts encode→decode is the identity for valid input.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint16(7), []byte{1, 2, 3, 4, 5, 6})
	f.Fuzz(func(t *testing.T, seq uint16, raw []byte) {
		if len(raw) == 0 {
			return
		}
		if len(raw) > 3*maxFrameSamples {
			raw = raw[:3*maxFrameSamples]
		}
		n := len(raw) / 3
		if n == 0 {
			n = 1
		}
		codes := make([]int32, 0, n)
		for i := 0; i+2 < len(raw) || len(codes) == 0; i += 3 {
			var u uint32
			for k := 0; k < 3 && i+k < len(raw); k++ {
				u = u<<8 | uint32(raw[i+k])
			}
			c := int32(u & 0x7FFFFF)
			if u&0x800000 != 0 {
				c = -c
			}
			codes = append(codes, c)
			if len(codes) == maxFrameSamples {
				break
			}
		}
		gotSeq, got, _, err := DecodeFrameInto(AppendFrame(nil, seq, codes), nil)
		if err != nil {
			t.Fatalf("valid frame rejected: %v", err)
		}
		if gotSeq != seq || len(got) != len(codes) {
			t.Fatal("round trip lost data")
		}
		for i := range codes {
			if got[i] != codes[i] {
				t.Fatalf("code %d: %d != %d", i, got[i], codes[i])
			}
		}
	})
}
