package forest

import (
	"runtime"
	"slices"
	"testing"
	"weak"

	"congestmst/internal/bfstree"
	"congestmst/internal/congest"
	"congestmst/internal/graph"
)

// TestHandOverReleasesRunner runs Controlled-GHS with each vertex's
// runner built by the test, which keeps a weak pointer to it. Once the
// vertices have left Controlled-GHS, the States they handed over are
// all that is held: a GC must collect every runner, so no State.Tree
// reaches back into one. The States are then read, checking that MST
// seeds exactly the tree ports and that PortOf finds every edge.
func TestHandOverReleasesRunner(t *testing.T) {
	g, err := graph.RandomConnected(200, 600, graph.GenOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	const k = 16
	runners := make([]weak.Pointer[runner], g.N())
	states := make([]*State, g.N())
	_, err = congest.NewEngine(g, congest.Config{}).Run(congest.StepFiberFactory(g.N(), func(c congest.Context) congest.Step {
		return bfstree.Build(c, 0, func(c congest.Context, _ *bfstree.Tree) congest.Step {
			r := newRunner(c, k, nil, func(c congest.Context, st *State) congest.Step {
				states[c.ID()] = st
				return congest.Done()
			})
			runners[c.ID()] = weak.Make(r)
			return r.startPhase(c)
		})
	}))
	if err != nil {
		t.Fatal(err)
	}

	runtime.GC()
	for v, w := range runners {
		if w.Value() != nil {
			t.Errorf("vertex %d: runner still reachable after hand-over", v)
		}
	}

	merged := 0
	for v, st := range states {
		tree := st.Tree
		if tree.Parent >= 0 {
			merged++
		}
		for p, in := range st.MST {
			if want := p == tree.Parent || slices.Contains(tree.Children, p); in != want {
				t.Errorf("vertex %d: MST[%d] = %v, tree port %v", v, p, in, want)
			}
		}
		for p, nbr := range st.NbrVertexID {
			if nbr != int64(g.Adj(v)[p].To) {
				t.Errorf("vertex %d: NbrVertexID[%d] = %d, want %d", v, p, nbr, g.Adj(v)[p].To)
			}
			if got := st.PortOf(int64(v), PackEdge(int64(v), nbr)); got != p {
				t.Errorf("vertex %d: PortOf(edge to %d) = %d, want %d", v, nbr, got, p)
			}
		}
	}
	if merged == 0 {
		t.Fatal("no vertex has a fragment-tree parent: the run built no forest to hand over")
	}
	if got := states[0].PortOf(0, -1); got != -1 {
		t.Errorf("PortOf(no edge) = %d, want -1", got)
	}
}
