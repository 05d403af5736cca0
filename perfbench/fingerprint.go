package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"reflect"
	"sort"

	"antidope/internal/core"
	"antidope/internal/stats"
)

var sampleType = reflect.TypeOf(&stats.Sample{})

// fingerprint hashes every exported field of a run result, recursively, so
// two results compare equal exactly when every measurement agrees bit for
// bit. Samples hash their sorted values (their internal sort state depends
// on which percentiles were read). With skipToken set, TokenDropFrac is
// left out: a wrapped scheme zeroes it (see timedScheme).
func fingerprint(res *core.Result, skipToken bool) string {
	r := *res
	if skipToken {
		r.TokenDropFrac = 0
	}
	h := sha256.New()
	hashValue(h, reflect.ValueOf(r))
	return hex.EncodeToString(h.Sum(nil))
}

func hashValue(h hash.Hash, v reflect.Value) {
	if v.Type() == sampleType {
		if v.IsNil() {
			fmt.Fprint(h, "nil;")
			return
		}
		xs := v.Interface().(*stats.Sample).Values()
		sort.Float64s(xs)
		fmt.Fprintf(h, "sample%d[", len(xs))
		buf := make([]byte, 8*len(xs))
		for i, x := range xs {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
		}
		h.Write(buf)
		fmt.Fprint(h, "];")
		return
	}
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			fmt.Fprint(h, "nil;")
			return
		}
		hashValue(h, v.Elem())
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < v.NumField(); i++ {
			if !t.Field(i).IsExported() {
				continue
			}
			fmt.Fprintf(h, "%s=", t.Field(i).Name)
			hashValue(h, v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		fmt.Fprintf(h, "[%d:", v.Len())
		for i := 0; i < v.Len(); i++ {
			hashValue(h, v.Index(i))
		}
		fmt.Fprint(h, "];")
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool {
			return fmt.Sprint(keys[i].Interface()) < fmt.Sprint(keys[j].Interface())
		})
		fmt.Fprintf(h, "{%d:", len(keys))
		for _, k := range keys {
			fmt.Fprintf(h, "%v=>", k.Interface())
			hashValue(h, v.MapIndex(k))
		}
		fmt.Fprint(h, "};")
	case reflect.Float32, reflect.Float64:
		fmt.Fprintf(h, "%x;", math.Float64bits(v.Float()))
	default:
		fmt.Fprintf(h, "%v;", v.Interface())
	}
}
