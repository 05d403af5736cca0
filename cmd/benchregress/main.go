// Command benchregress turns `go test -bench` output into a stable JSON
// record and gates CI on it: pipe benchmark output through it to snapshot the
// numbers, and pass a checked-in baseline to fail the build when a benchmark
// slows down past the tolerance.
//
// Examples:
//
//	go test -bench . -benchmem ./internal/... | benchregress -out BENCH_3.json
//	go test -bench . ./... | benchregress -baseline BENCH_3.json -tolerance 0.10
//
// The JSON schema ("antidope-bench/v1") maps benchmark name (with the
// -GOMAXPROCS suffix stripped, so runs from different machines compare) to
// ns/op and, when -benchmem was set, B/op and allocs/op. Only ns/op is gated:
// alloc counts are locked exactly by testing.AllocsPerRun assertions instead.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

type benchFile struct {
	Schema     string                `json:"schema"`
	Benchmarks map[string]benchEntry `json:"benchmarks"`
}

type benchEntry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

const schema = "antidope-bench/v1"

// benchLine matches the head of one `go test -bench` result line, and
// memStats the -benchmem pair, which go test prints after any units the
// benchmark added with b.ReportMetric:
//
//	BenchmarkName-8   123456   1234 ns/op [  0.5 B/req ...] [  56 B/op   7 allocs/op]
var (
	benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)
	memStats  = regexp.MustCompile(`\s([0-9.]+) B/op\s+([0-9.]+) allocs/op`)
)

func main() {
	var (
		out       = flag.String("out", "", "write parsed results to this JSON file")
		baseline  = flag.String("baseline", "", "compare ns/op against this JSON file and fail on regressions")
		tolerance = flag.Float64("tolerance", 0.10, "allowed fractional ns/op increase over the baseline")
	)
	flag.Parse()

	got, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchregress: %v\n", err)
		os.Exit(1)
	}
	if len(got.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchregress: no benchmark lines on stdin")
		os.Exit(1)
	}

	if *out != "" {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchregress: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchregress: %v\n", err)
			os.Exit(1)
		}
	}

	if *baseline == "" {
		return
	}
	base, err := load(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchregress: %v\n", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(got.Benchmarks))
	for name := range got.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	regressed := 0
	for _, name := range names {
		cur := got.Benchmarks[name]
		ref, ok := base.Benchmarks[name]
		if !ok || ref.NsPerOp <= 0 {
			fmt.Printf("NEW      %-55s %12.1f ns/op (no baseline)\n", name, cur.NsPerOp)
			continue
		}
		delta := cur.NsPerOp/ref.NsPerOp - 1
		status := "ok"
		if delta > *tolerance {
			status = "REGRESSED"
			regressed++
		}
		fmt.Printf("%-8s %-55s %12.1f ns/op vs %12.1f (%+.1f%%)\n",
			status, name, cur.NsPerOp, ref.NsPerOp, delta*100)
	}
	if regressed > 0 {
		fmt.Fprintf(os.Stderr, "benchregress: %d benchmark(s) regressed more than %.0f%%\n",
			regressed, *tolerance*100)
		os.Exit(1)
	}
}

// parse reads `go test -bench` output and collects every result line.
// Lines that are not results are skipped; a result line whose number does not
// parse (the regexp admits "1.2.3") is an error.
func parse(r io.Reader) (benchFile, error) {
	out := benchFile{Schema: schema, Benchmarks: map[string]benchEntry{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		var e benchEntry
		nums, fields := []string{m[2]}, []*float64{&e.NsPerOp}
		if mm := memStats.FindStringSubmatch(line[len(m[0]):]); mm != nil {
			nums = append(nums, mm[1], mm[2])
			fields = append(fields, &e.BytesPerOp, &e.AllocsPerOp)
		}
		for i, dst := range fields {
			v, err := strconv.ParseFloat(nums[i], 64)
			if err != nil {
				return out, fmt.Errorf("%s: malformed number %q", m[1], nums[i])
			}
			*dst = v
		}
		out.Benchmarks[m[1]] = e
	}
	return out, sc.Err()
}

func load(path string) (benchFile, error) {
	var bf benchFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	if bf.Schema != schema {
		return bf, fmt.Errorf("%s: schema %q, want %q", path, bf.Schema, schema)
	}
	return bf, nil
}
