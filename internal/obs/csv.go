package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// csvHeader is the fixed column set of the event-stream CSV archive;
// WriteCSV emits it, ParseCSVEvents requires it.
const csvHeader = "t,kind,server,class,id,a,b,label"

// WriteCSV renders the complete event stream — nothing omitted — as CSV
// with a fixed header. Labels are static identifiers from the simulator's
// own vocabulary (class names, drop reasons, fault kinds) and never contain
// commas or quotes, so no escaping is applied.
func WriteCSV(w io.Writer, rec *Recorder) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	bw.WriteString(csvHeader + "\n")
	rec.Each(func(ev Event) {
		bw.WriteString(strconv.FormatFloat(ev.T, 'g', -1, 64))
		bw.WriteByte(',')
		bw.WriteString(ev.Kind.String())
		bw.WriteByte(',')
		bw.WriteString(strconv.Itoa(int(ev.Server)))
		bw.WriteByte(',')
		bw.WriteString(strconv.Itoa(int(ev.Class)))
		bw.WriteByte(',')
		bw.WriteString(strconv.FormatUint(ev.ID, 10))
		bw.WriteByte(',')
		bw.WriteString(formatFloat(ev.A))
		bw.WriteByte(',')
		bw.WriteString(formatFloat(ev.B))
		bw.WriteByte(',')
		bw.WriteString(ev.Label)
		bw.WriteByte('\n')
	})
	return bw.Flush()
}

// kindIndex maps the stable kebab-case names back to Kind values; built
// once from kindNames, read-only afterwards.
var kindIndex = func() map[string]Kind {
	m := make(map[string]Kind, numKinds)
	for k := 0; k < numKinds; k++ {
		m[Kind(k).String()] = Kind(k)
	}
	return m
}()

// ParseCSVEvents parses a stream previously written by WriteCSV back into
// events — the offline half of the timeline/analyzer pipeline
// (cmd/tracereport replays a captured CSV through the same folds the live
// bus runs). Labels are interned so a flood trace's repeated reasons share
// one string each.
func ParseCSVEvents(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("obs: event CSV is empty, missing header")
	}
	if sc.Text() != csvHeader {
		return nil, fmt.Errorf("obs: unexpected CSV header %q, want %q", sc.Text(), csvHeader)
	}
	labels := map[string]string{}
	var evs []Event
	line := 1
	for sc.Scan() {
		line++
		ev, err := parseCSVLine(sc.Text(), labels)
		if err != nil {
			return nil, fmt.Errorf("obs: CSV line %d: %w", line, err)
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return evs, nil
}

func parseCSVLine(s string, labels map[string]string) (Event, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 8 {
		return Event{}, fmt.Errorf("%d fields, want 8", len(parts))
	}
	t, err := strconv.ParseFloat(parts[0], 64)
	if err != nil {
		return Event{}, fmt.Errorf("bad t %q: %v", parts[0], err)
	}
	// Sim-time starts at zero and is always finite.
	if t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
		return Event{}, fmt.Errorf("t %q is not a finite non-negative time", parts[0])
	}
	kind, ok := kindIndex[parts[1]]
	if !ok {
		return Event{}, fmt.Errorf("unknown kind %q", parts[1])
	}
	server, err := strconv.ParseInt(parts[2], 10, 32)
	if err != nil {
		return Event{}, fmt.Errorf("bad server %q: %v", parts[2], err)
	}
	class, err := strconv.ParseInt(parts[3], 10, 32)
	if err != nil {
		return Event{}, fmt.Errorf("bad class %q: %v", parts[3], err)
	}
	id, err := strconv.ParseUint(parts[4], 10, 64)
	if err != nil {
		return Event{}, fmt.Errorf("bad id %q: %v", parts[4], err)
	}
	a, err := strconv.ParseFloat(parts[5], 64)
	if err != nil {
		return Event{}, fmt.Errorf("bad a %q: %v", parts[5], err)
	}
	b, err := strconv.ParseFloat(parts[6], 64)
	if err != nil {
		return Event{}, fmt.Errorf("bad b %q: %v", parts[6], err)
	}
	label := parts[7]
	// The line scanner strips one trailing CR, so a label ending in CR
	// would not survive a write-and-reparse; WriteCSV never emits one.
	if strings.IndexByte(label, '\r') >= 0 {
		return Event{}, fmt.Errorf("carriage return in label %q", label)
	}
	if interned, ok := labels[label]; ok {
		label = interned
	} else {
		labels[label] = label
	}
	return Event{
		T: t, Kind: kind, Server: int32(server), Class: int32(class),
		ID: id, A: a, B: b, Label: label,
	}, nil
}
