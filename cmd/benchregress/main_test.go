package main

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

const sampleBench = `pkg: antidope/internal/simtime
BenchmarkScheduleAndRun-8   	 1000000	      1234 ns/op	      56 B/op	       7 allocs/op
BenchmarkDrainBatch   	  200000	      98.5 ns/op
BenchmarkRun/fig3-udp-2 	       5	 612597752 ns/op	         0.2651 B/req	       524.4 ns/req	  317545 B/op	     385 allocs/op
ok  	antidope/internal/simtime	3.210s
`

// TestParse checks a well-formed capture, then lines the "[0-9.]+" regexp
// matches although they hold no number: they are errors, not panics.
func TestParse(t *testing.T) {
	got, err := parse(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]benchEntry{
		"BenchmarkScheduleAndRun": {NsPerOp: 1234, BytesPerOp: 56, AllocsPerOp: 7},
		"BenchmarkDrainBatch":     {NsPerOp: 98.5},
		"BenchmarkRun/fig3-udp":   {NsPerOp: 612597752, BytesPerOp: 317545, AllocsPerOp: 385},
	}
	if !reflect.DeepEqual(got.Benchmarks, want) {
		t.Errorf("parse = %+v, want %+v", got.Benchmarks, want)
	}
	for _, in := range []string{
		"BenchmarkFoo-8 100 1.2.3 ns/op\n",
		"BenchmarkFoo 100 . ns/op\n",
		"BenchmarkFoo 100 5 ns/op 10 B/op 3.3.3 allocs/op\n",
		"BenchmarkFoo 100 1" + strings.Repeat("0", 400) + " ns/op\n",
	} {
		if got, err := parse(strings.NewReader(in)); err == nil {
			t.Errorf("parse(%.40q) = %+v, want an error", in, got.Benchmarks)
		}
	}
}

func FuzzParse(f *testing.F) {
	f.Add(sampleBench)
	f.Add("BenchmarkFoo-8 100 1.2.3 ns/op\n")
	f.Add("BenchmarkAllQuick/sequential-2 3 9012345678 ns/op\n")
	f.Fuzz(func(t *testing.T, in string) {
		got, err := parse(strings.NewReader(in))
		if err != nil {
			return
		}
		for name, e := range got.Benchmarks {
			for _, v := range []float64{e.NsPerOp, e.BytesPerOp, e.AllocsPerOp} {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Fatalf("%s: accepted entry %+v has a non-finite or negative value", name, e)
				}
			}
		}
	})
}
