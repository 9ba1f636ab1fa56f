package fragops

import (
	"testing"

	"congestmst/internal/congest"
	"congestmst/internal/graph"
)

// program is one vertex's Step program on a fragment tree, given its
// fragment-tree parent port (-1 at the root) and child ports.
type program func(c congest.Context, parent int, children []int) congest.Step

// starTree runs a program on a star graph where vertex 0 is the
// fragment root and every leaf is its child; all vertices share one
// fragment spanning the graph.
func starTree(t *testing.T, n int, prog program) *congest.Stats {
	t.Helper()
	g := graph.Star(n, graph.GenOptions{})
	e := congest.NewEngine(g, congest.Config{})
	stats, err := e.Run(congest.StepFiberFactory(g.N(), func(c congest.Context) congest.Step {
		if c.ID() == 0 {
			children := make([]int, c.Degree())
			for i := range children {
				children[i] = i
			}
			return prog(c, -1, children)
		}
		return prog(c, 0, nil)
	}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return stats
}

// pathTree runs a program on a path where vertex 0 is the root and
// each vertex's child is the next one.
func pathTree(t *testing.T, n int, prog program) {
	t.Helper()
	g := graph.Path(n, graph.GenOptions{})
	e := congest.NewEngine(g, congest.Config{})
	_, err := e.Run(congest.StepFiberFactory(g.N(), func(c congest.Context) congest.Step {
		var parent int
		var children []int
		switch {
		case c.ID() == 0:
			parent = -1
			children = []int{0} // port 0 leads to vertex 1
		case c.ID() == n-1:
			parent = 0
		default:
			parent = 0          // port 0 leads to the smaller neighbor
			children = []int{1} // port 1 leads to the larger neighbor
		}
		return prog(c, parent, children)
	}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestConvergeSumsOverStar(t *testing.T) {
	const n = 12
	starTree(t, n, func(c congest.Context, parent int, children []int) congest.Step {
		sum := func(acc, child [3]int64) [3]int64 {
			return [3]int64{acc[0] + child[0], acc[1] + child[1], 0}
		}
		return ConvergeStep(c, parent, children, c.Round()+4, true, [3]int64{int64(c.ID()), 1, 0}, sum,
			func(c congest.Context, got [3]int64, isRoot bool) congest.Step {
				if isRoot != (c.ID() == 0) {
					t.Errorf("vertex %d isRoot=%v", c.ID(), isRoot)
				}
				if isRoot {
					wantSum := int64(n * (n - 1) / 2)
					if got[0] != wantSum || got[1] != n {
						t.Errorf("root got %v, want sum=%d count=%d", got, wantSum, n)
					}
				}
				return congest.Done()
			})
	})
}

func TestConvergeInactiveDrains(t *testing.T) {
	starTree(t, 6, func(c congest.Context, parent int, children []int) congest.Step {
		return ConvergeStep(c, parent, children, c.Round()+3, false, [3]int64{}, nil,
			func(c congest.Context, _ [3]int64, _ bool) congest.Step {
				if c.Round() == 0 {
					t.Error("inactive Converge did not consume the window")
				}
				return congest.Done()
			})
	})
}

func TestArgminFindsMinAndWinnerPath(t *testing.T) {
	const n = 9
	pathTree(t, n, func(c congest.Context, parent int, children []int) congest.Step {
		// Vertex i bids (100-i, i, 0); the tail vertex n-1 wins.
		var winner int
		own := [3]int64{int64(100 - c.ID()), int64(c.ID()), 0}
		return ArgminStep(c, parent, children, c.Round()+int64(n+4), true, own, &winner,
			func(c congest.Context, got [3]int64, isRoot bool) congest.Step {
				if isRoot && got != [3]int64{int64(100 - (n - 1)), int64(n - 1), 0} {
					t.Errorf("root argmin %v", got)
				}
				// Winner pointers: tail says self, everyone else points down.
				if c.ID() == n-1 {
					if winner != -2 {
						t.Errorf("tail winner = %d, want -2", winner)
					}
				} else if winner != 1 && !(c.ID() == 0 && winner == 0) {
					t.Errorf("vertex %d winner = %d, want child port", c.ID(), winner)
				}
				// Downcast to the winner.
				return WinnerDowncastStep(c, parent, c.Round()+int64(n+4), isRoot,
					func() int { return winner }, [3]int64{7, 0, 0},
					func(c congest.Context, _ [3]int64, target bool) congest.Step {
						if target != (c.ID() == n-1) {
							t.Errorf("vertex %d target=%v", c.ID(), target)
						}
						return congest.Done()
					})
			})
	})
}

func TestArgminAllSentinel(t *testing.T) {
	starTree(t, 5, func(c congest.Context, parent int, children []int) congest.Step {
		var winner int
		return ArgminStep(c, parent, children, c.Round()+4, true, Sentinel, &winner,
			func(c congest.Context, got [3]int64, isRoot bool) congest.Step {
				if isRoot && got != Sentinel {
					t.Errorf("root got %v, want sentinel", got)
				}
				if winner != -1 {
					t.Errorf("winner = %d, want -1", winner)
				}
				return congest.Done()
			})
	})
}

func TestBroadcastReachesAll(t *testing.T) {
	const n = 9
	pathTree(t, n, func(c congest.Context, parent int, children []int) congest.Step {
		return BroadcastStep(c, parent, children, c.Round()+int64(n+4), true, [3]int64{42, 43, 44},
			func(c congest.Context, got [3]int64, ok bool) congest.Step {
				if !ok {
					t.Errorf("vertex %d did not receive the broadcast", c.ID())
				}
				if got != [3]int64{42, 43, 44} {
					t.Errorf("vertex %d got %v", c.ID(), got)
				}
				return congest.Done()
			})
	})
}

func TestUpPathFromDeepVertex(t *testing.T) {
	const n = 7
	pathTree(t, n, func(c congest.Context, parent int, children []int) congest.Step {
		origin := c.ID() == n-1
		return UpPathStep(c, parent, children, c.Round()+int64(n+4), origin, [3]int64{9, 8, 7},
			func(c congest.Context, got [3]int64, received bool) congest.Step {
				if c.ID() == 0 {
					if !received || got != [3]int64{9, 8, 7} {
						t.Errorf("root got %v received=%v", got, received)
					}
				} else if received {
					t.Errorf("non-root %d claims receipt", c.ID())
				}
				return congest.Done()
			})
	})
}

func TestKeyLess(t *testing.T) {
	tests := []struct {
		a, b [3]int64
		want bool
	}{
		{[3]int64{1, 0, 0}, [3]int64{2, 0, 0}, true},
		{[3]int64{1, 1, 0}, [3]int64{1, 2, 0}, true},
		{[3]int64{1, 1, 1}, [3]int64{1, 1, 2}, true},
		{[3]int64{1, 1, 1}, [3]int64{1, 1, 1}, false},
		{[3]int64{2, 0, 0}, [3]int64{1, 9, 9}, false},
	}
	for _, tt := range tests {
		if got := KeyLess(tt.a, tt.b); got != tt.want {
			t.Errorf("KeyLess(%v,%v) = %v", tt.a, tt.b, got)
		}
	}
}

func TestWindowDeadlineExact(t *testing.T) {
	starTree(t, 3, func(c congest.Context, parent int, children []int) congest.Step {
		start := c.Round()
		return DrainStep(c, start+5, func(c congest.Context) congest.Step {
			if c.Round() != start+5 {
				t.Errorf("vertex %d at round %d after Drain, want %d", c.ID(), c.Round(), start+5)
			}
			return congest.Done()
		})
	})
}
