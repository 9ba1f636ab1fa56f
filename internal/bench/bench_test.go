package bench

import (
	"fmt"
	"strings"
	"testing"
)

// TestAllExperimentsProduceSaneTables runs every experiment at the
// quick scale and checks structure: rows exist, row widths match the
// header, and no invariant cell reads VIOLATED. This doubles as the
// end-to-end regression harness for the whole reproduction.
func TestAllExperimentsProduceSaneTables(t *testing.T) {
	// The separation sweeps and the engine races are the slow tail of
	// the suite; short mode (CI) skips them and keeps the structural
	// coverage of e1-e8 (CI covers the cluster engine with its own
	// smoke job instead).
	slow := map[string]bool{"e9": true, "e10": true, "e11": true, "e12": true, "e14": true, "e15": true}
	for _, exp := range All() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			if testing.Short() && slow[exp.ID] {
				t.Skipf("%s skipped in short mode", exp.ID)
			}
			table, err := exp.Run(false)
			if err != nil {
				t.Fatalf("%s: %v", exp.ID, err)
			}
			if table.ID != exp.ID {
				t.Errorf("table ID %q, want %q", table.ID, exp.ID)
			}
			if len(table.Rows) == 0 {
				t.Fatal("no rows")
			}
			if table.Claim == "" || table.Title == "" {
				t.Error("missing claim or title")
			}
			for i, row := range table.Rows {
				if len(row) != len(table.Columns) {
					t.Errorf("row %d has %d cells, header has %d", i, len(row), len(table.Columns))
				}
				for _, cell := range row {
					if strings.Contains(cell, "VIOLATED") {
						t.Errorf("row %d reports a violated invariant: %v", i, row)
					}
				}
			}
		})
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("e1"); !ok {
		t.Error("e1 not found")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("bogus id found")
	}
	if len(All()) != 14 {
		t.Errorf("expected 14 experiments, got %d", len(All()))
	}
}

func TestTableFormat(t *testing.T) {
	table := &Table{
		ID:      "ex",
		Title:   "demo",
		Claim:   "c",
		Columns: []string{"a", "long-header"},
		Rows:    [][]string{{"wide-cell", "1"}},
		Notes:   []string{"n1"},
	}
	out := table.Format()
	for _, want := range []string{"EX: demo", "claim: c", "long-header", "wide-cell", "note: n1"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Header, separator and data rows must align to the same width.
	if len(lines) < 5 {
		t.Fatalf("unexpected format:\n%s", out)
	}
	if len(lines[2]) != len(lines[3]) || len(lines[3]) != len(lines[4]) {
		t.Errorf("columns not aligned:\n%s", out)
	}
}

func TestRatioHelpers(t *testing.T) {
	if got := ratio(10, 4); got != "2.50" {
		t.Errorf("ratio = %q", got)
	}
	if got := ratio(10, 0); got != "-" {
		t.Errorf("ratio by zero = %q", got)
	}
}

// TestE5BlowupGrowsWithD checks the headline property of the ablation
// experiment numerically, not just structurally: the highest-diameter
// row must show a clearly larger τ-traffic blow-up than the lowest.
func TestE5BlowupGrowsWithD(t *testing.T) {
	table, err := E5Ablation(false)
	if err != nil {
		t.Fatal(err)
	}
	parse := func(s string) float64 {
		var f float64
		if _, err := fmt.Sscanf(s, "%f", &f); err != nil {
			t.Fatalf("cannot parse ratio %q", s)
		}
		return f
	}
	// Small-scale rows are ordered by falling D: row 0 has the largest D.
	highD := parse(table.Rows[0][5])
	lowD := parse(table.Rows[len(table.Rows)-1][5])
	if highD <= lowD {
		t.Errorf("blow-up does not grow with D: highD=%.2f lowD=%.2f", highD, lowD)
	}
	if highD < 1.5 {
		t.Errorf("blow-up at the largest D is only %.2f", highD)
	}
}
