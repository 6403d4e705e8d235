package measure

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The Arduino UNO reads ADC codes over SPI and forwards them to the
// data-logging computer over its serial link in small framed batches.
// This file implements that wire protocol: a sync word, a sequence
// number for loss detection, a batch of big-endian signed 24-bit codes,
// and a CRC-16/CCITT trailer.

// frameSync marks the start of a frame on the wire.
const frameSync = 0xAA55

// maxFrameSamples bounds a frame to the UNO's tiny SRAM.
const maxFrameSamples = 32

// Errors returned by DecodeFrameInto.
var (
	ErrShortFrame = errors.New("measure: frame truncated")
	ErrBadSync    = errors.New("measure: bad sync word")
	ErrBadCRC     = errors.New("measure: CRC mismatch")
)

// AppendFrame serializes a batch of ADC codes: it appends the encoded
// frame to dst and returns the extended slice. The sampler hot path
// passes the same buffer every flush so steady-state framing does not
// allocate. It panics if the batch is empty or exceeds maxFrameSamples,
// or if a code does not fit in 24 bits — those are programming errors
// in the sampler.
func AppendFrame(dst []byte, seq uint16, codes []int32) []byte {
	if len(codes) == 0 || len(codes) > maxFrameSamples {
		panic(fmt.Sprintf("measure: frame with %d samples", len(codes)))
	}
	start := len(dst)
	buf := dst
	buf = binary.BigEndian.AppendUint16(buf, frameSync)
	buf = binary.BigEndian.AppendUint16(buf, seq)
	buf = append(buf, byte(len(codes)))
	for _, c := range codes {
		if c > 1<<23-1 || c < -(1<<23) {
			panic(fmt.Sprintf("measure: code %d exceeds 24 bits", c))
		}
		u := uint32(c) & 0xFFFFFF
		buf = append(buf, byte(u>>16), byte(u>>8), byte(u))
	}
	return binary.BigEndian.AppendUint16(buf, crc16(buf[start:]))
}

// DecodeFrameInto parses one frame, verifying sync and CRC: decoded
// codes are appended to codes and the extended slice is returned along
// with the frame sequence number and the number of bytes consumed. The
// sampler hot path passes the same slice every flush so steady-state
// decoding does not allocate.
func DecodeFrameInto(b []byte, codes []int32) (uint16, []int32, int, error) {
	if len(b) < 7 {
		return 0, codes, 0, ErrShortFrame
	}
	if binary.BigEndian.Uint16(b) != frameSync {
		return 0, codes, 0, ErrBadSync
	}
	n := int(b[4])
	if n == 0 || n > maxFrameSamples {
		return 0, codes, 0, fmt.Errorf("measure: implausible sample count %d", n)
	}
	total := 5 + 3*n + 2
	if len(b) < total {
		return 0, codes, 0, ErrShortFrame
	}
	if crc16(b[:total-2]) != binary.BigEndian.Uint16(b[total-2:total]) {
		return 0, codes, 0, ErrBadCRC
	}
	for i := 0; i < n; i++ {
		o := 5 + 3*i
		u := uint32(b[o])<<16 | uint32(b[o+1])<<8 | uint32(b[o+2])
		if u&0x800000 != 0 { // sign-extend 24→32 bits
			u |= 0xFF000000
		}
		codes = append(codes, int32(u))
	}
	return binary.BigEndian.Uint16(b[2:4]), codes, total, nil
}

// crc16 is CRC-16/CCITT-FALSE, the variant small microcontroller
// firmware commonly ships.
func crc16(b []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, c := range b {
		crc ^= uint16(c) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}
