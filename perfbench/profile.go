package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// profileStacks decodes a gzipped pprof profile, as runtime/pprof writes
// it, into one stack of function names per sample (innermost frame first,
// inlined frames expanded) and the sample's first value (the sample count
// for a CPU profile). Only the fields needed for that are decoded.
func profileStacks(gz []byte) (stacks [][]string, weights []int64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		value int64
	}
	var (
		samples []sample
		strs    []string
		funcs   = map[uint64]int64{}    // function id → name string index
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			first := true
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = pbUints(s.locs, v, b)
				case 2:
					if vals := pbUints(nil, v, b); first && len(vals) > 0 {
						s.value, first = int64(vals[0]), false
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	for _, s := range samples {
		var st []string
		for _, l := range s.locs {
			for _, fn := range locs[l] {
				if i := funcs[fn]; i >= 0 && i < int64(len(strs)) {
					st = append(st, strs[i])
				}
			}
		}
		stacks = append(stacks, st)
		weights = append(weights, s.value)
	}
	return stacks, weights, nil
}

var errTruncated = errors.New("truncated protobuf")

// pbFields walks the protobuf message b, calling fn with each field number
// and either its varint value or its length-delimited bytes. Fixed-width
// fields are skipped.
func pbFields(b []byte, fn func(field int, v uint64, body []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = pbVarint(b)
			if n == 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, body); err != nil {
			return err
		}
	}
	return nil
}

// pbVarint decodes one varint, returning its length (0 when truncated).
func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pbUints appends a repeated integer field that arrived either as one
// varint (body nil) or packed (body holds the varints).
func pbUints(dst []uint64, v uint64, body []byte) []uint64 {
	if body == nil {
		return append(dst, v)
	}
	for len(body) > 0 {
		x, n := pbVarint(body)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		body = body[n:]
	}
	return dst
}
