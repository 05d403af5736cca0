package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// LoadCSV reads a container-usage CSV in the Alibaba clusterdata v2018
// schema and aggregates it to a cluster utilization Trace.
//
// The expected columns (header optional) are:
//
//	container_id, machine_id, time_stamp, cpu_util_percent, mem_gps, ...
//
// Only time_stamp (seconds) and cpu_util_percent (0-100) are consumed;
// trailing columns are ignored so both container_usage and machine_usage
// files parse. Rows with malformed or non-finite numbers are skipped and
// counted; half or more malformed is an error, because that indicates the
// wrong file rather than dirty data. A trace spanning more than maxSamples
// intervals is an error too, so one stray time stamp cannot size an
// unbounded sample slice.
func LoadCSV(r io.Reader, intervalSec float64) (*Trace, error) {
	if !(intervalSec > 0) || math.IsInf(intervalSec, 1) {
		return nil, fmt.Errorf("trace: interval %v must be positive and finite", intervalSec)
	}
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // the real trace has variable trailing fields
	cr.ReuseRecord = true

	type bucket struct {
		sum   float64
		count int
	}
	buckets := make(map[int64]*bucket)
	machines := make(map[string]struct{})
	var rows, bad int

	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: csv read: %w", err)
		}
		if len(rec) < 4 {
			bad++
			continue
		}
		// Skip a header row if present.
		if rows == 0 && strings.Contains(strings.ToLower(rec[2]), "time") {
			continue
		}
		rows++
		ts, err1 := strconv.ParseFloat(strings.TrimSpace(rec[2]), 64)
		cpu, err2 := strconv.ParseFloat(strings.TrimSpace(rec[3]), 64)
		if err1 != nil || err2 != nil || !isFinite(ts) || !isFinite(cpu) || cpu < 0 {
			bad++
			continue
		}
		q := ts / intervalSec
		if math.Abs(q) > maxBucket {
			return nil, fmt.Errorf("trace: time stamp %v out of range", ts)
		}
		machines[rec[1]] = struct{}{}
		k := int64(q)
		b := buckets[k]
		if b == nil {
			b = &bucket{}
			buckets[k] = b
		}
		b.sum += cpu / 100
		b.count++
	}
	if rows == 0 {
		return nil, fmt.Errorf("trace: empty csv")
	}
	if bad*2 >= rows {
		return nil, fmt.Errorf("trace: %d/%d rows malformed; wrong schema?", bad, rows)
	}

	keys := make([]int64, 0, len(buckets))
	for k := range buckets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	if len(keys) == 0 {
		return nil, fmt.Errorf("trace: no usable rows")
	}

	first, last := keys[0], keys[len(keys)-1]
	if last-first >= maxSamples {
		return nil, fmt.Errorf("trace: time stamps span %d intervals, more than %d", last-first+1, maxSamples)
	}
	out := &Trace{
		IntervalSec: intervalSec,
		Samples:     make([]float64, last-first+1),
		Machines:    len(machines),
	}
	prev := 0.0
	for i := range out.Samples {
		if b, ok := buckets[first+int64(i)]; ok && b.count > 0 {
			prev = b.sum / float64(b.count)
		}
		// Gaps in the trace hold the previous value, matching how the
		// simulator samples it.
		out.Samples[i] = clamp01(prev)
	}
	return out, nil
}

// maxSamples caps a loaded trace's length: 1<<22 intervals is 48 days at
// one-second resolution, well past the 8-day Alibaba trace.
const maxSamples = 1 << 22

// maxBucket bounds a time stamp's interval index so the int64 conversion is
// exact and index differences cannot overflow.
const maxBucket = 1 << 53

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
