package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Host self time by layer comes from a runtime/pprof CPU profile of the
// benchmark process: each sample's CPU time goes to the package of its
// leaf frame, and the package to a layer. The profile is a gzipped
// profile.proto message; the few fields needed here are decoded by hand
// so the benchmark needs nothing outside the standard library.

// layerOfPackage maps a Go package path to the layer it is counted in.
// Program packages map to this repository's modules; the Go runtime (GC,
// scheduler, locks) is its own bucket; HTTP, JSON and hashing are the
// transport; the rest — the benchmark itself, formatting, sorting — is
// "other".
func layerOfPackage(pkg string) string {
	if mod, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		mod, _, _ = strings.Cut(mod, "/")
		switch mod {
		case "cpu", "isa", "program":
			return "cpu"
		case "memsys", "pmu", "harness", "serve":
			return mod
		case "core", "verify", "analysis", "obs":
			return "core"
		case "compiler", "asm", "workloads":
			return "compiler"
		}
		return "other"
	}
	switch {
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"),
		strings.HasPrefix(pkg, "internal/runtime/"), pkg == "sync", pkg == "sync/atomic":
		return "runtime"
	case pkg == "net", strings.HasPrefix(pkg, "net/"), pkg == "encoding/json",
		pkg == "crypto/sha256", strings.HasPrefix(pkg, "crypto/internal/"),
		pkg == "bufio", pkg == "syscall", pkg == "internal/poll",
		strings.HasPrefix(pkg, "vendor/golang.org/x/net/"):
		return "transport"
	}
	return "other"
}

// packageOf extracts the package path from a Go symbol name such as
// "repro/internal/cpu.(*CPU).executeBundle" or "net/http.(*conn).serve":
// everything before the first '.' after the last '/'.
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// isForkFunction reports whether a symbol belongs to the checkpoint/fork
// machinery, by name: *Snapshot*, *Restore*, *Fork*.
func isForkFunction(fn string) bool {
	name := fn[len(packageOf(fn)):]
	return strings.Contains(name, "Snapshot") || strings.Contains(name, "Restore") ||
		strings.Contains(name, "Fork")
}

// forkSelf reports whether a sample's self time belongs to the fork
// machinery: its leaf is a fork function, or its leaf is in the Go
// runtime (a copy or an allocation) on behalf of a fork function, the
// nearest caller outside the runtime. stack is innermost first.
func forkSelf(stack []string) bool {
	for _, fn := range stack {
		if layerOfPackage(packageOf(fn)) != "runtime" {
			return isForkFunction(fn)
		}
	}
	return false
}

// layerProfile is a CPU profile bucketed by the leaf frame's layer.
type layerProfile struct {
	Seconds     map[string]float64 `json:"seconds_by_layer"`
	ForkSeconds float64            `json:"fork_snapshot_restore_seconds"`
	Total       float64            `json:"total_seconds"`
	Samples     int                `json:"samples"`
	// Top lists the hottest leaf functions, for reading the buckets.
	Top []leafTime `json:"top_leaves"`

	byLeaf map[string]float64
}

type leafTime struct {
	Function string  `json:"function"`
	Layer    string  `json:"layer"`
	Seconds  float64 `json:"seconds"`
}

// bucketProfile decodes a CPU profile and sums its CPU time by layer.
func bucketProfile(data []byte) (*layerProfile, error) {
	p, err := decodeProfile(data)
	if err != nil {
		return nil, err
	}
	vi := -1
	for i, st := range p.sampleTypes {
		if st == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("profile has no cpu sample type")
	}
	lp := &layerProfile{Seconds: map[string]float64{}, byLeaf: map[string]float64{}}
	for _, s := range p.samples {
		if len(s.locs) == 0 || vi >= len(s.values) {
			continue
		}
		stack := p.stack(s.locs)
		if len(stack) == 0 {
			continue
		}
		sec := float64(s.values[vi]) / 1e9
		lp.Seconds[layerOfPackage(packageOf(stack[0]))] += sec
		if forkSelf(stack) {
			lp.ForkSeconds += sec
		}
		lp.Total += sec
		lp.Samples++
		lp.byLeaf[stack[0]] += sec
	}
	lp.Top = topLeaves(lp.byLeaf)
	return lp, nil
}

// merge adds o's samples to lp.
func (lp *layerProfile) merge(o *layerProfile) {
	for l, sec := range o.Seconds {
		lp.Seconds[l] += sec
	}
	lp.ForkSeconds += o.ForkSeconds
	lp.Total += o.Total
	lp.Samples += o.Samples
	if lp.byLeaf == nil {
		lp.byLeaf = map[string]float64{}
	}
	for fn, sec := range o.byLeaf {
		lp.byLeaf[fn] += sec
	}
	lp.Top = topLeaves(lp.byLeaf)
}

// topLeaves lists the 40 hottest leaf functions.
func topLeaves(byLeaf map[string]float64) []leafTime {
	var top []leafTime
	for fn, sec := range byLeaf {
		top = append(top, leafTime{Function: fn, Layer: layerOfPackage(packageOf(fn)), Seconds: sec})
	}
	sort.Slice(top, func(i, j int) bool {
		if top[i].Seconds != top[j].Seconds {
			return top[i].Seconds > top[j].Seconds
		}
		return top[i].Function < top[j].Function
	})
	if len(top) > 40 {
		top = top[:40]
	}
	return top
}

// profile holds the decoded subset of profile.proto.
type profile struct {
	sampleTypes []string
	samples     []sample
	locFuncs    map[uint64][]uint64 // location id → function ids, innermost first
	funcName    map[uint64]int64    // function id → string-table index
	strings     []string
}

type sample struct {
	locs   []uint64
	values []int64
}

// stack names a sample's frames, innermost first. A location lists its
// inlined functions innermost first, then the function they were inlined
// into.
func (p *profile) stack(locs []uint64) []string {
	var out []string
	for _, loc := range locs {
		for _, fid := range p.locFuncs[loc] {
			name := "?"
			if si := p.funcName[fid]; si >= 0 && int(si) < len(p.strings) {
				name = p.strings[si]
			}
			out = append(out, name)
		}
	}
	return out
}

// decodeProfile parses a (possibly gzipped) profile.proto message.
func decodeProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	var typeIdx []int64
	err := forFields(data, func(num int, wire int, v uint64, b []byte) error {
		switch {
		case num == 1 && wire == 2: // sample_type: ValueType{type = 1}
			var t int64
			err := forFields(b, func(n, w int, v uint64, _ []byte) error {
				if n == 1 && w == 0 {
					t = int64(v)
				}
				return nil
			})
			typeIdx = append(typeIdx, t)
			return err
		case num == 2 && wire == 2: // sample: location_id = 1, value = 2
			var s sample
			err := forFields(b, func(n, w int, v uint64, pb []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, w, v, pb)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, w, v, pb); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case num == 4 && wire == 2: // location: id = 1, line = 4 {function_id = 1}
			var id uint64
			var fids []uint64
			err := forFields(b, func(n, w int, v uint64, lb []byte) error {
				switch {
				case n == 1 && w == 0:
					id = v
				case n == 4 && w == 2:
					return forFields(lb, func(ln, lw int, lv uint64, _ []byte) error {
						if ln == 1 && lw == 0 {
							fids = append(fids, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fids
			return err
		case num == 5 && wire == 2: // function: id = 1, name = 2
			var id uint64
			var name int64
			err := forFields(b, func(n, w int, v uint64, _ []byte) error {
				switch {
				case n == 1 && w == 0:
					id = v
				case n == 2 && w == 0:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case num == 6 && wire == 2: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, t := range typeIdx {
		name := ""
		if t >= 0 && int(t) < len(p.strings) {
			name = p.strings[t]
		}
		p.sampleTypes = append(p.sampleTypes, name)
	}
	return p, nil
}

// appendVarints appends a repeated varint field, packed (wire type 2) or
// not (wire type 0).
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// forFields walks one protobuf message, calling fn per field with its
// number, wire type, and either its varint value or its bytes.
func forFields(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
