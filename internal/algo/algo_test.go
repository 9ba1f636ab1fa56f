package algo

import (
	"strings"
	"testing"

	"congestmst/internal/congest"
	"congestmst/internal/graph"
	"congestmst/internal/verify"
)

func TestProgramRejectsUnknownName(t *testing.T) {
	for _, name := range []string{"", "kruskal", "Elkin"} {
		prog, err := Program(Spec{Name: name, N: 4}, make([][]int, 4), func(int, int) {})
		if err == nil || prog != nil {
			t.Errorf("Program(%q) = (%v, %v), want an error and no program", name, prog != nil, err)
			continue
		}
		if want := "unknown algorithm"; !strings.Contains(err.Error(), want) {
			t.Errorf("Program(%q) error %q does not say %q", name, err, want)
		}
	}
}

// TestProgramRunsEveryAlgorithm runs each name on Lockstep and checks
// the ports against Kruskal and what the root reports.
func TestProgramRunsEveryAlgorithm(t *testing.T) {
	g := graph.Grid(4, 5, graph.GenOptions{Seed: 3})
	for _, tc := range []struct {
		name   string
		fixedK int
		wantK  int // -1: the root reports nothing
	}{
		{"elkin", 0, 5},         // max(ceil(sqrt(20)), the BFS height 5)
		{"elkin-fixed-k", 0, 5}, // ceil(sqrt(20))
		{"elkin-fixed-k", 3, 3},
		{"ghs", 0, -1},
		{"pipeline", 0, 5},
	} {
		ports := make([][]int, g.N())
		k := -1
		prog, err := Program(Spec{Name: tc.name, N: g.N(), Root: 2, FixedK: tc.fixedK}, ports,
			func(rootK, _ int) { k = rootK })
		if err != nil {
			t.Fatalf("Program(%q): %v", tc.name, err)
		}
		if _, err := congest.NewEngine(g, congest.Config{}).Run(prog); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		edges, err := verify.MSTFromPorts(g, ports)
		if err == nil {
			err = verify.CheckEdges(g, edges)
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if k != tc.wantK {
			t.Errorf("%s (FixedK %d): root reported k = %d, want %d", tc.name, tc.fixedK, k, tc.wantK)
		}
	}
}
