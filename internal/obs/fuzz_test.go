package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzParseCSVEvents feeds arbitrary bytes to the events-CSV parser, the
// reader behind the offline timeline and analyzer rebuild. It must never
// panic, and whatever it accepts must round-trip: parse, WriteCSV, and parse
// again give the same events. Every accepted stream is then folded through
// Timeline.Replay, the bounded rebuild cmd/tracereport runs: it must stop
// with an error or keep the timeline within maxReplayWindows.
func FuzzParseCSVEvents(f *testing.F) {
	b := NewBus()
	for _, ev := range sampleEvents() {
		b.Emit(ev)
	}
	var full bytes.Buffer
	if err := b.WriteCSV(&full); err != nil {
		f.Fatal(err)
	}
	for _, in := range []string{
		full.String(),
		csvHeader + "\n",
		csvHeader + "\n0.4,req-complete,0,0,1,0.1,0.3,Colla-Filt\n",
		csvHeader + "\r\n-0,fault-open,-1,-1,0,+Inf,NaN,dvfs-delay\r\n",
		csvHeader + "\n0x1p-2,req-arrive,+3,2,18446744073709551615,1e-320,-0,\n",
		csvHeader + "\n1,no-such-kind,0,0,0,0,0,x\n",
		csvHeader + "\n1e12,net-retry,0,0,1,0,0,x\n",
		csvHeader + "\n2.5,net-retry,3,0,1,0,0,x\n7,net-retry,-1,0,2,0,0,x\n",
		csvHeader + "\n1,req-arrive,0,0,0,0,0,a,b\n",
		csvHeader + "\n1,req-arrive,0,0,0,0,0,abc\r\r\n",
		"t,kind\n",
		"",
	} {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		first, err := ParseCSVEvents(strings.NewReader(in))
		if err != nil {
			return
		}
		var rec Recorder
		for _, ev := range first {
			rec.Record(ev)
		}
		var out bytes.Buffer
		if err := WriteCSV(&out, &rec); err != nil {
			t.Fatal(err)
		}
		second, err := ParseCSVEvents(&out)
		if err != nil {
			t.Fatalf("re-parse of WriteCSV output failed: %v\n%s", err, out.String())
		}
		if len(second) != len(first) {
			t.Fatalf("round trip kept %d of %d events", len(second), len(first))
		}
		for i := range first {
			if !sameEvent(first[i], second[i]) {
				t.Fatalf("event %d changed in the round trip: %+v became %+v", i, first[i], second[i])
			}
		}

		tl := NewTimeline(0, 0)
		for _, ev := range first {
			if err := tl.Replay(ev); err != nil {
				return
			}
		}
		cells := len(tl.LinkRetries())
		for _, row := range tl.LinkRetries() {
			cells += len(row)
		}
		if len(tl.Windows()) > maxReplayWindows || cells > maxReplayWindows {
			t.Fatalf("replay grew to %d windows and %d link rows plus cells; the bound is %d",
				len(tl.Windows()), cells, maxReplayWindows)
		}
	})
}

// sameEvent compares events field by field, floats by bit pattern so a NaN
// field round-trips equal to itself.
func sameEvent(a, b Event) bool {
	return math.Float64bits(a.T) == math.Float64bits(b.T) &&
		a.Kind == b.Kind && a.Server == b.Server && a.Class == b.Class && a.ID == b.ID &&
		math.Float64bits(a.A) == math.Float64bits(b.A) &&
		math.Float64bits(a.B) == math.Float64bits(b.B) &&
		a.Label == b.Label
}
