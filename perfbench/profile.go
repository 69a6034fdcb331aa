package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// cpuProfile is the part of a runtime/pprof CPU profile that layer
// attribution needs. The profile is a gzipped profile.proto message; this
// decoder reads only the fields below, so the benchmark needs neither a
// module dependency nor `go tool pprof` at run time.
type cpuProfile struct {
	period  int64 // nanoseconds of CPU per sample
	samples []profSample
	locs    map[uint64][]uint64 // location id → function ids, innermost first
	funcs   map[uint64]profFunc
}

type profSample struct {
	locs  []uint64 // leaf first
	count int64
}

type profFunc struct {
	name, file string
}

// Field numbers from profile.proto.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileStrings  = 6
	fProfilePeriod   = 12

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
	fFunctionFile = 4
)

// parseCPUProfile decodes the output of pprof.StartCPUProfile.
func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &cpuProfile{locs: map[uint64][]uint64{}, funcs: map[uint64]profFunc{}}
	type rawFunc struct{ id, name, file uint64 }
	var fns []rawFunc
	var strs []string
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case fProfileSample:
			var s profSample
			var values []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case fSampleLocation:
					return appendUints(&s.locs, v, b)
				case fSampleValue:
					return appendUints(&values, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			// A CPU profile's first value is the sample count.
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			p.samples = append(p.samples, s)
		case fProfileLocation:
			var id uint64
			var fnIDs []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == fLineFunction {
							fnIDs = append(fnIDs, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locs[id] = fnIDs
		case fProfileFunction:
			var f rawFunc
			if err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					f.id = v
				case fFunctionName:
					f.name = v
				case fFunctionFile:
					f.file = v
				}
				return nil
			}); err != nil {
				return err
			}
			fns = append(fns, f)
		case fProfileStrings:
			strs = append(strs, string(b))
		case fProfilePeriod:
			p.period = int64(v)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, f := range fns {
		if f.name >= uint64(len(strs)) || f.file >= uint64(len(strs)) {
			return nil, errors.New("profile: function string index out of range")
		}
		p.funcs[f.id] = profFunc{name: strs[f.name], file: strs[f.file]}
	}
	return p, nil
}

// eachField calls fn for every field of one protobuf message: v carries a
// varint (or fixed-width) value, b a length-delimited payload.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUints handles a repeated scalar field in either encoding: one
// varint per field (b == nil) or a packed run of varints.
func appendUints(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
