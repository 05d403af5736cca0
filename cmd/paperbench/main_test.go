package main

import (
	"strings"
	"testing"
)

func TestSelectExperimentRejectsConflicts(t *testing.T) {
	for _, tc := range []struct {
		name                    string
		fig                     int
		x, scenarioFile, scnDir string
	}{
		{"fig and x", 3, "ablation", "", ""},
		{"fig and scenario", 3, "", "s.yaml", ""},
		{"x and scenario-dir", 0, "thermal", "", "scenarios"},
		{"scenario and scenario-dir", 0, "", "s.yaml", "scenarios"},
		{"all four", 16, "pulse", "s.yaml", "scenarios"},
	} {
		_, err := selectExperiment(tc.fig, tc.x, tc.scenarioFile, tc.scnDir)
		if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
			t.Errorf("%s: err = %v, want a mutual-exclusion error", tc.name, err)
		}
		if code := run(true, 2019, tc.fig, tc.x, 1, tc.scenarioFile, tc.scnDir,
			"", "", "", "", "", "", ""); code != 1 {
			t.Errorf("%s: run exit code %d, want 1", tc.name, code)
		}
	}
}

func TestSelectExperimentRejectsUnknown(t *testing.T) {
	for _, fig := range []int{1, 2, 13, 14, 20, -1} {
		if _, err := selectExperiment(fig, "", "", ""); err == nil {
			t.Errorf("-fig %d resolved to an experiment", fig)
		}
	}
	_, err := selectExperiment(0, "nope", "", "")
	if err == nil || !strings.Contains(err.Error(), "resilience-net") {
		t.Errorf("-x nope: err = %v, want an error listing the index names", err)
	}
	if code := run(true, 2019, 13, "", 1, "", "", "", "", "", "", "", "", ""); code != 1 {
		t.Errorf("-fig 13: run exit code %d, want 1", code)
	}
}

func TestSelectExperimentResolves(t *testing.T) {
	for _, tc := range []struct {
		fig  int
		x    string
		want string
	}{
		{3, "", "fig3"},
		{17, "", "evalgrid"},
		{19, "", "evalgrid"},
		{0, "resilience-net", "resilience-net"},
	} {
		e, err := selectExperiment(tc.fig, tc.x, "", "")
		if err != nil || e == nil || e.Name != tc.want {
			t.Errorf("-fig %d -x %q: got %v, %v; want %s", tc.fig, tc.x, e, err, tc.want)
		}
	}
	for _, sel := range [][2]string{{"", ""}, {"s.yaml", ""}, {"", "scenarios"}} {
		if e, err := selectExperiment(0, "", sel[0], sel[1]); e != nil || err != nil {
			t.Errorf("scenario selectors %v: got %v, %v; want neither an entry nor an error", sel, e, err)
		}
	}
}
