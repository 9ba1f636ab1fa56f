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
	// The separation sweeps are the slow tail of the suite; short mode
	// (CI) skips them and keeps the structural coverage of e1-e8.
	slow := map[string]bool{"e9": true, "e10": true}
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
	if len(All()) != 10 {
		t.Errorf("expected 10 experiments, got %d", len(All()))
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

// column parses one ratio column of a table, named by its header,
// top row first.
func column(t *testing.T, table *Table, header string) []float64 {
	t.Helper()
	col := -1
	for i, c := range table.Columns {
		if c == header {
			col = i
		}
	}
	if col < 0 {
		t.Fatalf("%s has no column %q", table.ID, header)
	}
	out := make([]float64, len(table.Rows))
	for i, row := range table.Rows {
		if _, err := fmt.Sscanf(row[col], "%f", &out[i]); err != nil {
			t.Fatalf("%s row %d: cannot parse %s %q", table.ID, i, header, row[col])
		}
	}
	return out
}

// TestE1RatiosStayBounded checks Theorem 4.3 on the quick-scale sweep
// k = 8..64: neither ratio column (rounds over k·lg* n, messages over
// m·lg k + n·lg k·lg* n) may exceed its k = 8 value by more than 10 %.
// At the time of writing they read 78.69, 78.38, 77.08, 75.86 and
// 3.52, 3.38, 3.39, 3.47; the counts are exact, so the test is
// deterministic.
func TestE1RatiosStayBounded(t *testing.T) {
	table, err := E1BaseForest(false)
	if err != nil {
		t.Fatal(err)
	}
	for _, header := range []string{"rounds/(k lg* n)", "msgs/bound"} {
		ratios := column(t, table, header)
		for i, r := range ratios {
			if r > 1.10*ratios[0] {
				t.Errorf("%s grows with k: %.2f at row %d against %.2f at k = 8", header, r, i, ratios[0])
			}
		}
	}
}

// TestE3RatiosStayBounded checks Theorem 3.1 on the quick-scale sweep
// n = 128, 256, 512: each ratio column (rounds over (D + sqrt n)·lg n,
// messages over m·lg n) must read at n = 512 within 25 % of its n = 128
// value. At the time of writing they read 46.84, 31.91, 39.91 and
// 4.87, 4.60, 5.48.
func TestE3RatiosStayBounded(t *testing.T) {
	table, err := E3LowDiameter(false)
	if err != nil {
		t.Fatal(err)
	}
	for _, header := range []string{"r/((D+sqrt n)lg n)", "m/(m lg n)"} {
		ratios := column(t, table, header)
		first, last := ratios[0], ratios[len(ratios)-1]
		if last > 1.25*first || last < 0.75*first {
			t.Errorf("%s moves from %.2f at n = 128 to %.2f at n = 512, beyond 25 %%", header, first, last)
		}
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
	// Small-scale rows are ordered by falling D: row 0 has the largest D.
	blowup := column(t, table, "blowup")
	highD, lowD := blowup[0], blowup[len(blowup)-1]
	if highD <= lowD {
		t.Errorf("blow-up does not grow with D: highD=%.2f lowD=%.2f", highD, lowD)
	}
	if highD < 1.5 {
		t.Errorf("blow-up at the largest D is only %.2f", highD)
	}
}
