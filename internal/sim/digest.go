package sim

import (
	"fmt"
	"math"
	"reflect"
)

// This file derives the canonical content digests the experiments'
// cell memo keys on: two configs with equal digests produce
// bit-identical simulation results. The encoding is read off the
// config's own declaration, so a new field is digested the moment it is
// declared. Fields tagged `digest:"-"` are observation-only (Metrics
// registries, recorders, worker counts) and are skipped;
// TestDigestCoversEveryField pins that set. Unexported fields are
// skipped too: a config's unexported state (a compiled workload spec's
// rates) must be derived from its exported fields.
//
// The digest is 128 bits of FNV-1a, computed as two independent 64-bit
// streams over the same bytes (different offset bases), which is far
// past collision range for the handful of distinct cells a report run
// produces.

// Digest is a 128-bit canonical config fingerprint.
type Digest [16]byte

const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
	// fnvOffsetAlt decorrelates the second 64-bit stream.
	fnvOffsetAlt = 0x6c62272e07bb0142
)

// DigestOf fingerprints cfg by its declaration. Bools fold as one byte;
// ints, uints and floats (by bit pattern) as eight, low byte first;
// strings and slices are length-prefixed, so concatenations cannot
// alias; pointers fold a nil flag, then what they point to. A kind with
// no canonical encoding (map, func, chan, interface, complex) panics:
// such a field must be tagged `digest:"-"` or the config redesigned.
// Digests of different config types never alias, because each starts
// with its type's package path and name.
func DigestOf(cfg any) Digest {
	v := reflect.ValueOf(cfg)
	d := digester{h1: fnvOffset64, h2: fnvOffsetAlt}
	d.str(v.Type().PkgPath() + "." + v.Type().Name())
	d.value(v)
	var out Digest
	for i := 0; i < 8; i++ {
		out[i] = byte(d.h1 >> (8 * i))
		out[8+i] = byte(d.h2 >> (8 * i))
	}
	return out
}

// digester is one digest stream.
type digester struct {
	h1, h2 uint64
}

func (d *digester) byte(b byte) {
	d.h1 = (d.h1 ^ uint64(b)) * fnvPrime64
	d.h2 = (d.h2 ^ uint64(b)) * fnvPrime64
}

func (d *digester) u64(v uint64) {
	for i := 0; i < 8; i++ {
		d.byte(byte(v >> (8 * i)))
	}
}

func (d *digester) flag(b bool) {
	if b {
		d.byte(1)
	} else {
		d.byte(0)
	}
}

func (d *digester) str(s string) {
	d.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		d.byte(s[i])
	}
}

func (d *digester) value(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		d.flag(v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		d.u64(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		d.u64(v.Uint())
	case reflect.Float32, reflect.Float64:
		d.u64(math.Float64bits(v.Float()))
	case reflect.String:
		d.str(v.String())
	case reflect.Slice:
		d.u64(uint64(v.Len()))
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			d.value(v.Index(i))
		}
	case reflect.Pointer:
		d.flag(!v.IsNil())
		if !v.IsNil() {
			d.value(v.Elem())
		}
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() && f.Tag.Get("digest") != "-" {
				d.value(v.Field(i))
			}
		}
	default:
		panic(fmt.Sprintf("sim: %s has no canonical digest encoding", v.Type()))
	}
}

// Digest fingerprints every behavioral field of the config.
func (c MemLinkConfig) Digest() Digest { return DigestOf(c) }

// Digest fingerprints every behavioral field of the config.
func (c MultiChipConfig) Digest() Digest { return DigestOf(c) }

// Digest fingerprints every behavioral field of the config.
func (c TimingConfig) Digest() Digest { return DigestOf(c) }
