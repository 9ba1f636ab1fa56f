package fragops

import (
	"testing"

	"congestmst/internal/congest"
	"congestmst/internal/graph"
)

// program is one vertex's Step program on a fragment tree, given its
// tree record (Parent is -1 at the root).
type program func(c congest.Context, t *Tree) congest.Step

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
			return prog(c, NewTree(-1, children))
		}
		return prog(c, NewTree(0, nil))
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
		return prog(c, NewTree(parent, children))
	}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestConvergeSumsOverStar(t *testing.T) {
	const n = 12
	starTree(t, n, func(c congest.Context, tr *Tree) congest.Step {
		sum := func(acc, child [3]int64) [3]int64 {
			return [3]int64{acc[0] + child[0], acc[1] + child[1], 0}
		}
		return tr.Converge(c, c.Round()+4, true, [3]int64{int64(c.ID()), 1, 0}, sum,
			func(c congest.Context) congest.Step {
				if tr.Root != (c.ID() == 0) {
					t.Errorf("vertex %d Root=%v", c.ID(), tr.Root)
				}
				if tr.Root {
					wantSum := int64(n * (n - 1) / 2)
					if tr.Value[0] != wantSum || tr.Value[1] != n {
						t.Errorf("root got %v, want sum=%d count=%d", tr.Value, wantSum, n)
					}
				}
				return congest.Done()
			})
	})
}

func TestConvergeInactiveDrains(t *testing.T) {
	starTree(t, 6, func(c congest.Context, tr *Tree) congest.Step {
		own := [3]int64{int64(c.ID()), 5, 0}
		return tr.Converge(c, c.Round()+3, false, own, nil,
			func(c congest.Context) congest.Step {
				if c.Round() == 0 {
					t.Error("inactive Converge did not consume the window")
				}
				if tr.Root || tr.Value != own {
					t.Errorf("vertex %d: inactive Converge left Root=%v Value=%v, want false %v",
						c.ID(), tr.Root, tr.Value, own)
				}
				return congest.Done()
			})
	})
}

func TestArgminFindsMinAndWinnerPath(t *testing.T) {
	const n = 9
	pathTree(t, n, func(c congest.Context, tr *Tree) congest.Step {
		// Vertex i bids (100-i, i, 0); the tail vertex n-1 wins.
		var winner int
		own := [3]int64{int64(100 - c.ID()), int64(c.ID()), 0}
		return tr.Argmin(c, c.Round()+int64(n+4), true, own, &winner,
			func(c congest.Context) congest.Step {
				if tr.Root && tr.Value != [3]int64{int64(100 - (n - 1)), int64(n - 1), 0} {
					t.Errorf("root argmin %v", tr.Value)
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
				return tr.WinnerDowncast(c, c.Round()+int64(n+4), tr.Root, &winner, [3]int64{7, 0, 0},
					func(c congest.Context) congest.Step {
						if tr.Target != (c.ID() == n-1) {
							t.Errorf("vertex %d target=%v", c.ID(), tr.Target)
						}
						if tr.Target && tr.Value != [3]int64{7, 0, 0} {
							t.Errorf("target got %v, want the payload", tr.Value)
						}
						return congest.Done()
					})
			})
	})
}

func TestArgminAllSentinel(t *testing.T) {
	starTree(t, 5, func(c congest.Context, tr *Tree) congest.Step {
		var winner int
		return tr.Argmin(c, c.Round()+4, true, Sentinel, &winner,
			func(c congest.Context) congest.Step {
				if tr.Root && tr.Value != Sentinel {
					t.Errorf("root got %v, want sentinel", tr.Value)
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
	pathTree(t, n, func(c congest.Context, tr *Tree) congest.Step {
		return tr.Broadcast(c, c.Round()+int64(n+4), true, [3]int64{42, 43, 44},
			func(c congest.Context) congest.Step {
				if !tr.Received {
					t.Errorf("vertex %d did not receive the broadcast", c.ID())
				}
				if tr.Value != [3]int64{42, 43, 44} {
					t.Errorf("vertex %d got %v", c.ID(), tr.Value)
				}
				return congest.Done()
			})
	})
}

func TestUpPathFromDeepVertex(t *testing.T) {
	const n = 7
	pathTree(t, n, func(c congest.Context, tr *Tree) congest.Step {
		origin := c.ID() == n-1
		return tr.UpPath(c, c.Round()+int64(n+4), origin, [3]int64{9, 8, 7},
			func(c congest.Context) congest.Step {
				if c.ID() == 0 {
					if !tr.Received || tr.Value != [3]int64{9, 8, 7} {
						t.Errorf("root got %v received=%v", tr.Value, tr.Received)
					}
				} else if tr.Received {
					t.Errorf("non-root %d claims receipt", c.ID())
				}
				return congest.Done()
			})
	})
}

// TestOperationsReuseOneRecord runs every operation back to back on one
// record per vertex: each re-arms it, so no result leaks into the
// next operation.
func TestOperationsReuseOneRecord(t *testing.T) {
	const n = 6
	pathTree(t, n, func(c congest.Context, tr *Tree) congest.Step {
		var winner int
		end := func(c congest.Context) int64 { return c.Round() + int64(n+4) }
		return tr.UpPath(c, end(c), c.ID() == n-1, [3]int64{1, 2, 3}, func(c congest.Context) congest.Step {
			return tr.Broadcast(c, end(c), true, [3]int64{4, 5, 6}, func(c congest.Context) congest.Step {
				if tr.Value != [3]int64{4, 5, 6} || !tr.Received {
					t.Errorf("vertex %d: broadcast after UpPath left %v received=%v", c.ID(), tr.Value, tr.Received)
				}
				return tr.Argmin(c, end(c), false, [3]int64{0, 0, 0}, &winner, func(c congest.Context) congest.Step {
					if tr.Value != Sentinel || tr.Root || tr.Received {
						t.Errorf("vertex %d: inactive argmin left %v root=%v received=%v",
							c.ID(), tr.Value, tr.Root, tr.Received)
					}
					return congest.Done()
				})
			})
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

// TestWindowDeadlineExact: an operation hands over exactly at its end
// round, here the drained window of an inactive convergecast.
func TestWindowDeadlineExact(t *testing.T) {
	starTree(t, 3, func(c congest.Context, tr *Tree) congest.Step {
		start := c.Round()
		return tr.Converge(c, start+5, false, [3]int64{}, nil, func(c congest.Context) congest.Step {
			if c.Round() != start+5 {
				t.Errorf("vertex %d at round %d after the window, want %d", c.ID(), c.Round(), start+5)
			}
			return congest.Done()
		})
	})
}
