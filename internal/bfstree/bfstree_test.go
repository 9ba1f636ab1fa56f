package bfstree

import (
	"slices"
	"testing"

	"congestmst/internal/congest"
	"congestmst/internal/graph"
)

// testGraphs returns a diverse set of small graphs for table-driven
// primitive tests.
func testGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	r1, err := graph.RandomConnected(40, 100, graph.GenOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := graph.RandomConnected(60, 70, graph.GenOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"single":   graph.Path(1, graph.GenOptions{}),
		"pair":     graph.Path(2, graph.GenOptions{}),
		"path":     graph.Path(17, graph.GenOptions{}),
		"ring":     graph.Ring(16, graph.GenOptions{}),
		"star":     graph.Star(12, graph.GenOptions{}),
		"grid":     graph.Grid(5, 6, graph.GenOptions{}),
		"complete": graph.Complete(9, graph.GenOptions{}),
		"bintree":  graph.BinaryTree(15, graph.GenOptions{}),
		"lollipop": graph.Lollipop(6, 9, graph.GenOptions{}),
		"random1":  r1,
		"random2":  r2,
	}
}

// runTrees builds a tree on every vertex, continues with body (nil:
// retire at once), and returns the per-vertex views plus the run
// stats.
func runTrees(t *testing.T, g *graph.Graph, root int, cfg congest.Config,
	body func(c congest.Context, tr *Tree) congest.Step) ([]*Tree, *congest.Stats) {
	t.Helper()
	trees := make([]*Tree, g.N())
	e := congest.NewEngine(g, cfg)
	stats, err := e.Run(congest.StepFiberFactory(g.N(), func(c congest.Context) congest.Step {
		return Build(c, root, func(c congest.Context, tr *Tree) congest.Step {
			trees[c.ID()] = tr
			if body == nil {
				return congest.Done()
			}
			return body(c, tr)
		})
	}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return trees, stats
}

func retire(congest.Context) congest.Step { return congest.Done() }

// realign ends a test program with a SyncBroadcast, so every vertex
// retires in the same round.
func realign(c congest.Context, tr *Tree) congest.Step {
	return tr.SyncBroadcast(c, [3]int64{}, retire)
}

// minPerGroup is the main algorithm's upcast: it forwards the first,
// lightest, item of each group. Each call starts a fresh filter.
func minPerGroup() Upcast {
	seen := make(map[int64]bool)
	return Upcast{Kind: KindUp, Done: KindUpDone, Keep: func(it Item) bool {
		if seen[it.Group] {
			return false
		}
		seen[it.Group] = true
		return true
	}}
}

func itemLess(a, b Item) bool { return compareItems(a, b) < 0 }

func TestBuildDepthsMatchBFS(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			trees, stats := runTrees(t, g, 0, congest.Config{}, nil)
			dist := g.BFS(0)
			height := 0
			for v, tr := range trees {
				if int(tr.Depth) != dist[v] {
					t.Errorf("vertex %d: Depth=%d, BFS dist=%d", v, tr.Depth, dist[v])
				}
				if dist[v] > height {
					height = dist[v]
				}
				if tr.N != int64(g.N()) {
					t.Errorf("vertex %d: N=%d, want %d", v, tr.N, g.N())
				}
			}
			for v, tr := range trees {
				if int(tr.Height) != height {
					t.Errorf("vertex %d: Height=%d, want %d", v, tr.Height, height)
				}
				if tr.T0 != trees[0].T0 {
					t.Errorf("vertex %d: T0=%d differs from root's %d", v, tr.T0, trees[0].T0)
				}
			}
			// O(D) time, O(m) messages: generous constant-factor guards.
			if maxR := int64(6*height + 12); stats.Rounds > maxR {
				t.Errorf("Build took %d rounds; want <= %d (6H+12)", stats.Rounds, maxR)
			}
			if maxM := int64(4*g.M() + 6*g.N() + 8); stats.Messages > maxM {
				t.Errorf("Build used %d messages; want <= %d", stats.Messages, maxM)
			}
		})
	}
}

func TestBuildParentChildConsistency(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			trees, _ := runTrees(t, g, 0, congest.Config{}, nil)
			// parent(v) is one hop closer to the root; v appears in its
			// parent's child list; sizes add up.
			for v, tr := range trees {
				if v == 0 {
					if !tr.Root || tr.ParentPort != -1 {
						t.Fatalf("root flags wrong: %+v", tr)
					}
					continue
				}
				pu := g.Adj(v)[tr.ParentPort].To
				if trees[pu].Depth != tr.Depth-1 {
					t.Errorf("vertex %d: parent %d at depth %d, self %d", v, pu, trees[pu].Depth, tr.Depth)
				}
				found := false
				for _, cp := range trees[pu].ChildPorts {
					if g.Adj(pu)[cp].To == v {
						found = true
					}
				}
				if !found {
					t.Errorf("vertex %d not registered as child of %d", v, pu)
				}
			}
			for v, tr := range trees {
				var sum int64 = 1
				for _, s := range tr.ChildSizes {
					sum += s
				}
				if tr.Size != sum {
					t.Errorf("vertex %d: Size=%d, children sum to %d", v, tr.Size, sum)
				}
			}
			if trees[0].Size != int64(g.N()) {
				t.Errorf("root Size=%d, want %d", trees[0].Size, g.N())
			}
		})
	}
}

func TestIntervalsLaminarAndComplete(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			trees, _ := runTrees(t, g, 0, congest.Config{}, nil)
			// Labels are a permutation of 1..n.
			seen := make(map[int64]int)
			for v, tr := range trees {
				if tr.Hi-tr.Lo+1 != tr.Size {
					t.Errorf("vertex %d: interval [%d,%d] size %d, want %d", v, tr.Lo, tr.Hi, tr.Hi-tr.Lo+1, tr.Size)
				}
				if prev, dup := seen[tr.Lo]; dup {
					t.Errorf("label %d shared by %d and %d", tr.Lo, prev, v)
				}
				seen[tr.Lo] = v
			}
			for l := int64(1); l <= int64(g.N()); l++ {
				if _, ok := seen[l]; !ok {
					t.Errorf("label %d unassigned", l)
				}
			}
			// Child intervals nest inside the parent's and are disjoint.
			for v, tr := range trees {
				prevHi := tr.Lo // own label occupies Lo
				for i, iv := range tr.ChildIvs {
					if iv[0] != prevHi+1 {
						t.Errorf("vertex %d child %d: interval %v not contiguous after %d", v, i, iv, prevHi)
					}
					if iv[1] > tr.Hi {
						t.Errorf("vertex %d child %d: interval %v escapes [%d,%d]", v, i, iv, tr.Lo, tr.Hi)
					}
					prevHi = iv[1]
				}
				if len(tr.ChildIvs) > 0 && prevHi != tr.Hi {
					t.Errorf("vertex %d: children end at %d, want %d", v, prevHi, tr.Hi)
				}
			}
		})
	}
}

func TestBuildNonZeroRoot(t *testing.T) {
	g := graph.Grid(4, 4, graph.GenOptions{})
	root := 9
	trees, _ := runTrees(t, g, root, congest.Config{}, nil)
	dist := g.BFS(root)
	for v, tr := range trees {
		if int(tr.Depth) != dist[v] {
			t.Errorf("vertex %d: Depth=%d, want %d", v, tr.Depth, dist[v])
		}
	}
	if !trees[root].Root || trees[0].Root {
		t.Error("root flags wrong for non-zero root")
	}
}

func TestSyncBroadcast(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			n := g.N()
			payloads := make([][3]int64, n)
			returnRounds := make([]int64, n)
			runTrees(t, g, 0, congest.Config{}, func(c congest.Context, tr *Tree) congest.Step {
				return tr.SyncBroadcast(c, [3]int64{11, 22, 33}, func(c congest.Context) congest.Step {
					payloads[c.ID()] = tr.Value
					returnRounds[c.ID()] = c.Round()
					return congest.Done()
				})
			})
			for v := 0; v < n; v++ {
				if payloads[v] != [3]int64{11, 22, 33} {
					t.Errorf("vertex %d payload %+v", v, payloads[v])
				}
				if returnRounds[v] != returnRounds[0] {
					t.Errorf("vertex %d returned at %d, root at %d: not aligned", v, returnRounds[v], returnRounds[0])
				}
			}
		})
	}
}

func TestPipelinedUpcastAllDistinctGroups(t *testing.T) {
	// Every vertex contributes one item in its own group: the root must
	// receive all n items in sorted order.
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			var got []Item
			runTrees(t, g, 0, congest.Config{}, func(c congest.Context, tr *Tree) congest.Step {
				id := int64(c.ID())
				items := []Item{{Group: id, W: 1000 - id, U: id, V: 0}}
				return tr.PipelinedUpcast(c, minPerGroup(), items, func(c congest.Context) congest.Step {
					if tr.Root {
						got = slices.Clone(tr.Results)
					}
					return realign(c, tr)
				})
			})
			if len(got) != g.N() {
				t.Fatalf("root received %d items, want %d", len(got), g.N())
			}
			for i := 1; i < len(got); i++ {
				if !itemLess(got[i-1], got[i]) {
					t.Fatalf("results not sorted: %v >= %v", got[i-1], got[i])
				}
			}
			seen := make(map[int64]bool)
			for _, it := range got {
				if seen[it.Group] {
					t.Fatalf("group %d repeated", it.Group)
				}
				seen[it.Group] = true
				if it.W != 1000-it.Group {
					t.Fatalf("item %v corrupted", it)
				}
			}
		})
	}
}

func TestPipelinedUpcastMinFiltering(t *testing.T) {
	// All vertices contribute to a handful of shared groups; the root
	// must see exactly the per-group minimum.
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			const groups = 5
			var got []Item
			want := make(map[int64]Item)
			var contributions [][]Item
			for v := 0; v < g.N(); v++ {
				grp := int64(v % groups)
				it := Item{Group: grp, W: int64((v*37)%101 + 1), U: int64(v), V: int64(v)}
				contributions = append(contributions, []Item{it})
				if cur, ok := want[grp]; !ok || itemLess(it, cur) {
					want[grp] = it
				}
			}
			runTrees(t, g, 0, congest.Config{}, func(c congest.Context, tr *Tree) congest.Step {
				own := append([]Item(nil), contributions[c.ID()]...)
				return tr.PipelinedUpcast(c, minPerGroup(), own, func(c congest.Context) congest.Step {
					if tr.Root {
						got = slices.Clone(tr.Results)
					}
					return realign(c, tr)
				})
			})
			if len(got) != len(want) {
				t.Fatalf("root got %d groups, want %d", len(got), len(want))
			}
			for _, it := range got {
				if want[it.Group] != it {
					t.Errorf("group %d: got %v, want %v", it.Group, it, want[it.Group])
				}
			}
		})
	}
}

func TestPipelinedUpcastSharedEdgeTwoGroups(t *testing.T) {
	// Two groups claiming the identical (W,U,V) key must both survive
	// (regression test for the stream tie-break on Group).
	g := graph.Path(6, graph.GenOptions{})
	var got []Item
	runTrees(t, g, 0, congest.Config{}, func(c congest.Context, tr *Tree) congest.Step {
		var items []Item
		switch c.ID() {
		case 4:
			items = []Item{{Group: 1, W: 5, U: 2, V: 3}}
		case 5:
			items = []Item{{Group: 2, W: 5, U: 2, V: 3}}
		}
		return tr.PipelinedUpcast(c, minPerGroup(), items, func(c congest.Context) congest.Step {
			if tr.Root {
				got = slices.Clone(tr.Results)
			}
			return realign(c, tr)
		})
	})
	if len(got) != 2 {
		t.Fatalf("got %d items, want 2: %v", len(got), got)
	}
}

func TestPipelinedUpcastRoundBound(t *testing.T) {
	// K groups over height H must finish in O(H + K) rounds.
	g := graph.Path(64, graph.GenOptions{})
	var start, end int64
	runTrees(t, g, 0, congest.Config{}, func(c congest.Context, tr *Tree) congest.Step {
		if tr.Root {
			start = c.Round()
		}
		id := int64(c.ID())
		return tr.PipelinedUpcast(c, minPerGroup(), []Item{{Group: id, W: id, U: id}}, func(c congest.Context) congest.Step {
			if tr.Root {
				end = c.Round()
			}
			return realign(c, tr)
		})
	})
	rounds := end - start
	bound := int64(3*(64+64) + 20)
	if rounds > bound {
		t.Errorf("upcast took %d rounds for H=63,K=64; want <= %d", rounds, bound)
	}
}

func TestPipelinedUpcastBandwidthSpeedup(t *testing.T) {
	// With bandwidth b the same upcast must take roughly H + K/b rounds.
	g := graph.Path(48, graph.GenOptions{})
	run := func(b int) int64 {
		var start, end int64
		runTrees(t, g, 0, congest.Config{Bandwidth: b}, func(c congest.Context, tr *Tree) congest.Step {
			if tr.Root {
				start = c.Round()
			}
			id := int64(c.ID())
			// Everyone contributes 4 private groups.
			items := []Item{
				{Group: id * 4, W: id},
				{Group: id*4 + 1, W: id + 1000},
				{Group: id*4 + 2, W: id + 2000},
				{Group: id*4 + 3, W: id + 3000},
			}
			return tr.PipelinedUpcast(c, minPerGroup(), items, func(c congest.Context) congest.Step {
				if tr.Root {
					end = c.Round()
				}
				return realign(c, tr)
			})
		})
		return end - start
	}
	r1, r8 := run(1), run(8)
	if r8 >= r1 {
		t.Errorf("bandwidth 8 (%d rounds) not faster than bandwidth 1 (%d rounds)", r8, r1)
	}
}

func TestRouteDown(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			n := g.N()
			received := make([][]Routed, n)
			labels := make([]int64, n)
			runTrees(t, g, 0, congest.Config{}, func(c congest.Context, tr *Tree) congest.Step {
				labels[c.ID()] = tr.Lo
				var pairs []Routed
				if tr.Root {
					// Address two payloads to every vertex, including
					// the root itself.
					for l := int64(1); l <= tr.N; l++ {
						pairs = append(pairs, Routed{Target: l, A: l * 10, B: l * 100})
						pairs = append(pairs, Routed{Target: l, A: l * 11, B: l * 101})
					}
				}
				return tr.RouteDown(c, pairs, func(c congest.Context) congest.Step {
					received[c.ID()] = slices.Clone(tr.Mine)
					return realign(c, tr)
				})
			})
			for v := 0; v < n; v++ {
				l := labels[v]
				if len(received[v]) != 2 {
					t.Fatalf("vertex %d received %d pairs, want 2", v, len(received[v]))
				}
				slices.SortFunc(received[v], func(a, b Routed) int { return int(a.A - b.A) })
				if received[v][0] != (Routed{Target: l, A: l * 10, B: l * 100}) ||
					received[v][1] != (Routed{Target: l, A: l * 11, B: l * 101}) {
					t.Errorf("vertex %d got %v", v, received[v])
				}
			}
		})
	}
}

func TestRouteDownEmpty(t *testing.T) {
	g := graph.Grid(3, 3, graph.GenOptions{})
	runTrees(t, g, 0, congest.Config{}, func(c congest.Context, tr *Tree) congest.Step {
		return tr.RouteDown(c, nil, func(c congest.Context) congest.Step {
			if len(tr.Mine) != 0 {
				t.Errorf("vertex %d received %v from empty downcast", c.ID(), tr.Mine)
			}
			return realign(c, tr)
		})
	})
}

func TestPrimitiveComposition(t *testing.T) {
	// A realistic sequence: broadcast, upcast, route, repeated twice,
	// exercising the alignment discipline between operations and the
	// re-arming of one record.
	g, err := graph.RandomConnected(50, 140, graph.GenOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	runTrees(t, g, 0, congest.Config{}, func(c congest.Context, tr *Tree) congest.Step {
		var iter func(c congest.Context, i int) congest.Step
		iter = func(c congest.Context, i int) congest.Step {
			if i == 2 {
				return congest.Done()
			}
			return tr.SyncBroadcast(c, [3]int64{int64(i)}, func(c congest.Context) congest.Step {
				if tr.Value[0] != int64(i) {
					t.Errorf("broadcast payload %d, want %d", tr.Value[0], i)
				}
				own := []Item{{Group: int64(c.ID()), W: int64(c.ID())}}
				return tr.PipelinedUpcast(c, minPerGroup(), own, func(c congest.Context) congest.Step {
					var pairs []Routed
					if tr.Root {
						if len(tr.Results) != g.N() {
							t.Errorf("upcast returned %d, want %d", len(tr.Results), g.N())
						}
						pairs = []Routed{{Target: tr.N, A: 7}}
					}
					return tr.SyncBroadcast(c, [3]int64{}, func(c congest.Context) congest.Step {
						if len(tr.Results) != 0 {
							t.Errorf("broadcast left %d upcast results in the record", len(tr.Results))
						}
						return tr.RouteDown(c, pairs, func(c congest.Context) congest.Step {
							if got := tr.Mine; tr.Lo == tr.N && (len(got) != 1 || got[0].A != 7) {
								t.Errorf("deep vertex got %v", got)
							}
							return tr.SyncBroadcast(c, [3]int64{}, func(c congest.Context) congest.Step {
								return iter(c, i+1)
							})
						})
					})
				})
			})
		}
		return iter(c, 0)
	})
}

// TestPipelinedUpcastCallerKindsAndFilter runs the upcast with another
// protocol's message kinds and a filter that keeps every item: the
// stream is counted under those kinds only, and the root keeps all n
// items.
func TestPipelinedUpcastCallerKindsAndFilter(t *testing.T) {
	g := graph.Grid(4, 5, graph.GenOptions{})
	up := Upcast{Kind: 100, Done: 101, Keep: func(Item) bool { return true }}
	var got int
	_, stats := runTrees(t, g, 0, congest.Config{}, func(c congest.Context, tr *Tree) congest.Step {
		id := int64(c.ID())
		return tr.PipelinedUpcast(c, up, []Item{{Group: 0, W: id}}, func(c congest.Context) congest.Step {
			if tr.Root {
				got = len(tr.Results)
			}
			return realign(c, tr)
		})
	})
	if got != g.N() {
		t.Errorf("root kept %d items, want %d", got, g.N())
	}
	if stats.ByKind[KindUp] != 0 || stats.ByKind[KindUpDone] != 0 {
		t.Errorf("upcast sent %d items and %d markers under bfstree's kinds", stats.ByKind[KindUp], stats.ByKind[KindUpDone])
	}
	if stats.ByKind[101] != int64(g.N()-1) {
		t.Errorf("%d end markers under kind 101, want %d", stats.ByKind[101], g.N()-1)
	}
}
