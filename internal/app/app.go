// Package app ships the workload kernels of the reproduction. Every kernel
// implements model.App and programs only against model.Process, so the same
// kernel runs unchanged under the native baseline (mpi.NopProtocol) and under
// the SPBC engine — exactly as the paper runs identical binaries under
// unmodified and modified MPICH.
//
// Kernels must be channel-deterministic (Section 3.4): given the same initial
// state and the same delivered message contents, a step performs the same
// sends. Both kernels here are plain SPMD floating-point iterations, so they
// are in fact send-deterministic.
package app

import (
	"encoding/binary"
	"fmt"
	"math"
)

// encodeFloats serializes a float64 slice (length-prefixed, little endian).
// A nil buf is sized once: the prefix, the values, and room for the one
// scalar the Snapshot callers append.
func encodeFloats(buf []byte, vals []float64) []byte {
	if buf == nil {
		buf = make([]byte, 0, 8*(len(vals)+2))
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(vals)))
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// decodeFloats deserializes a slice written by encodeFloats and returns the
// remaining bytes.
func decodeFloats(buf []byte) ([]float64, []byte, error) {
	if len(buf) < 8 {
		return nil, nil, fmt.Errorf("app: truncated state")
	}
	n := binary.LittleEndian.Uint64(buf)
	buf = buf[8:]
	if uint64(len(buf)) < 8*n {
		return nil, nil, fmt.Errorf("app: truncated state: want %d floats, have %d bytes", n, len(buf))
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf))
		buf = buf[8:]
	}
	return out, buf, nil
}

// putFloat appends one float64.
func putFloat(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

// getFloat reads one float64 and returns the remaining bytes.
func getFloat(buf []byte) (float64, []byte, error) {
	if len(buf) < 8 {
		return 0, nil, fmt.Errorf("app: truncated state")
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(buf))
	return v, buf[8:], nil
}
