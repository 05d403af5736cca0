package trace

import (
	"math"
	"strings"
	"testing"
)

// FuzzLoadCSV feeds arbitrary bytes and intervals to the trace loader, the
// parser of outside input that turns a downloaded CSV into arrival rates.
// Malformed input must come back as an error, never a panic; accepted input
// must be a usable trace: at least one sample, every sample a finite
// utilization in [0,1].
func FuzzLoadCSV(f *testing.F) {
	for _, in := range []string{
		sampleCSV,
		"container_id,machine_id,time_stamp,cpu_util_percent\n" + sampleCSV,
		"c,m,0,40,x\nc,m,180,80,x\n",
		"a,b,x,y,z\na,b,x,y,z\na,b,x,y,z\n",
		"c,m,0,250,x\n",
		"a,m,0,NaN\nb,m,1,50\n",
		"a,m,0,50\nb,m,1e300,50\n",
		"",
	} {
		f.Add(in, 60.0)
		f.Add(in, 1.0)
	}
	f.Fuzz(func(t *testing.T, in string, intervalSec float64) {
		tr, err := LoadCSV(strings.NewReader(in), intervalSec)
		if err != nil {
			return
		}
		if len(tr.Samples) < 1 || len(tr.Samples) > maxSamples {
			t.Fatalf("accepted trace has %d samples", len(tr.Samples))
		}
		if tr.Machines < 1 {
			t.Fatalf("accepted trace has %d machines", tr.Machines)
		}
		for i, v := range tr.Samples {
			if math.IsNaN(v) || v < 0 || v > 1 {
				t.Fatalf("sample %d = %v, want a finite value in [0,1]", i, v)
			}
		}
	})
}
