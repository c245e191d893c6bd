package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file decodes the subset of the pprof profile.proto format the
// traced run needs: each CPU sample's stack (as function names, leaf
// first), its sample count and its goroutine labels. The standard library
// writes the format but offers no reader.

// cpuSample is one stack of a CPU profile.
type cpuSample struct {
	// frames holds function names, innermost first (inlined calls
	// expanded).
	frames []string
	// count is the number of profiling ticks that hit this stack.
	count int64
	// labels are the goroutine labels at the time of the samples.
	labels map[string]string
}

// cpuProfile is a decoded CPU profile.
type cpuProfile struct {
	samples []cpuSample
	// periodNS is the sampling period in nanoseconds.
	periodNS int64
}

// Profile.proto field numbers.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileStrings  = 6
	fProfilePeriod   = 12

	fSampleLocation = 1
	fSampleValue    = 2
	fSampleLabel    = 3

	fLabelKey = 1
	fLabelStr = 2

	fLocationID   = 1
	fLocationLine = 4

	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

// pbField is one decoded protobuf field: a varint, or a length-delimited
// payload.
type pbField struct {
	num    int
	varint uint64
	data   []byte
	isLen  bool
}

// pbFields splits a protobuf message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return nil, errors.New("profile: bad field key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return nil, errors.New("profile: bad varint")
			}
			f.varint, b = v, b[n:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errors.New("profile: bad length")
			}
			f.data, f.isLen, b = b[n:n+int(l)], true, b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("profile: unsupported wire type %d", key&7)
		}
		out = append(out, f)
	}
	return out, nil
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// varints appends the values of a repeated integer field, which the
// encoder writes either packed (one length-delimited field) or as
// separate varint fields.
func varints(dst []uint64, f pbField) ([]uint64, error) {
	if !f.isLen {
		return append(dst, f.varint), nil
	}
	b := f.data
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			return nil, errors.New("profile: bad packed varint")
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

// parseCPUProfile decodes a gzipped CPU profile as written by
// runtime/pprof.StartCPUProfile.
func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	fields, err := pbFields(raw)
	if err != nil {
		return nil, err
	}

	var strs []string
	funcName := map[uint64]int64{} // function id → string index
	locFuncs := map[uint64][]uint64{}
	var sampleMsgs [][]byte
	p := &cpuProfile{}
	for _, f := range fields {
		switch f.num {
		case fProfileStrings:
			strs = append(strs, string(f.data))
		case fProfilePeriod:
			p.periodNS = int64(f.varint)
		case fProfileSample:
			sampleMsgs = append(sampleMsgs, f.data)
		case fProfileFunction:
			sub, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int64
			for _, s := range sub {
				switch s.num {
				case fFunctionID:
					id = s.varint
				case fFunctionName:
					name = int64(s.varint)
				}
			}
			funcName[id] = name
		case fProfileLocation:
			sub, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, s := range sub {
				switch s.num {
				case fLocationID:
					id = s.varint
				case fLocationLine:
					line, err := pbFields(s.data)
					if err != nil {
						return nil, err
					}
					for _, l := range line {
						if l.num == fLineFunction {
							fns = append(fns, l.varint)
						}
					}
				}
			}
			locFuncs[id] = fns
		}
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}

	for _, msg := range sampleMsgs {
		sub, err := pbFields(msg)
		if err != nil {
			return nil, err
		}
		var locs, vals []uint64
		s := cpuSample{}
		for _, f := range sub {
			switch f.num {
			case fSampleLocation:
				if locs, err = varints(locs, f); err != nil {
					return nil, err
				}
			case fSampleValue:
				if vals, err = varints(vals, f); err != nil {
					return nil, err
				}
			case fSampleLabel:
				lf, err := pbFields(f.data)
				if err != nil {
					return nil, err
				}
				var k, v int64
				for _, l := range lf {
					switch l.num {
					case fLabelKey:
						k = int64(l.varint)
					case fLabelStr:
						v = int64(l.varint)
					}
				}
				if s.labels == nil {
					s.labels = map[string]string{}
				}
				s.labels[str(k)] = str(v)
			}
		}
		if len(vals) == 0 {
			continue
		}
		// The CPU profile's first value is the sample count.
		s.count = int64(vals[0])
		for _, l := range locs {
			for _, fn := range locFuncs[l] {
				s.frames = append(s.frames, str(funcName[fn]))
			}
		}
		p.samples = append(p.samples, s)
	}
	if p.periodNS <= 0 {
		return nil, errors.New("profile: no sampling period")
	}
	return p, nil
}

// internalPrefix marks the program's layers: each package under
// flexmap/internal is one layer.
const internalPrefix = "flexmap/internal/"

// benchLayer and gcLayer are the attribution buckets for samples outside
// the program's layers: the benchmark's own code (its fire hook), and
// everything else (garbage collection and the rest of the runtime).
const (
	benchLayer = "bench"
	gcLayer    = "gc"
)

// layerOf attributes a stack to the innermost frame that is either in a
// program layer or in the benchmark's own main package.
func layerOf(frames []string) string {
	for _, fn := range frames {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
		if strings.HasPrefix(fn, "main.") {
			return benchLayer
		}
	}
	return gcLayer
}
