package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func TestIndexNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Index() {
		if e.Name == "" || seen[e.Name] {
			t.Errorf("index name %q is empty or repeated", e.Name)
		}
		seen[e.Name] = true
		if got, ok := Lookup(e.Name); !ok || got.Name != e.Name {
			t.Errorf("Lookup(%q) = %q, %v", e.Name, got.Name, ok)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup found an entry for an unknown name")
	}
}

// TestIndexFigures pins which paper figures have an experiment: every
// evaluated figure resolves to exactly one entry, and the diagrams (1, 2,
// 13, 14) to none.
func TestIndexFigures(t *testing.T) {
	for fig := 0; fig <= 20; fig++ {
		var owners []string
		for _, e := range Index() {
			if slices.Contains(e.Figures, fig) {
				owners = append(owners, e.Name)
			}
		}
		want := 0
		if (fig >= 3 && fig <= 12) || (fig >= 15 && fig <= 19) {
			want = 1
		}
		if len(owners) != want {
			t.Errorf("figure %d is covered by %v, want %d entries", fig, owners, want)
			continue
		}
		e, ok := ForFigure(fig)
		if ok != (want == 1) || (ok && e.Name != owners[0]) {
			t.Errorf("ForFigure(%d) = %q, %v; want %v", fig, e.Name, ok, owners)
		}
	}
}

// TestIndexEntryIsSuiteSection pins a single entry's output (paperbench
// -fig 3) to the section the suite prints for it.
func TestIndexEntryIsSuiteSection(t *testing.T) {
	e, ok := Lookup("fig3")
	if !ok {
		t.Fatal("no fig3 entry")
	}
	var buf bytes.Buffer
	if err := e.Run(quick(), &buf); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "all_quick.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 || !bytes.Contains(golden, buf.Bytes()) {
		t.Fatalf("fig3 entry output is not a section of all_quick.golden:\n%s", buf.Bytes())
	}
}
