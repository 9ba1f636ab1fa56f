// Package pipeline implements the Pipeline-MST algorithm of Garay,
// Kutten and Peleg [GKP98, KP98], the near-time-optimal baseline the
// paper improves on: O(D + sqrt(n)·log* n) rounds but O(m + n^{3/2})
// messages.
//
// Phase 1 builds an (sqrt(n), O(sqrt(n)))-MST base forest with
// Controlled-GHS (shared with the main algorithm). Phase 2 pipelines
// every inter-fragment edge towards the root of an auxiliary BFS tree:
// each vertex forwards candidate edges in increasing weight order,
// filtering out every edge that closes a cycle (in the graph of
// fragments) with edges it has already forwarded — the cycle property
// guarantees the filtered edge is not in the MST. Each vertex therefore
// forwards at most |F|-1 = sqrt(n) edges, which is where the n^{3/2}
// message term comes from. The root finishes the MST locally and floods
// the chosen edges back down the tree.
//
// The algorithm is one Step program (Program); FiberFactory drives it
// on every vertex, so every engine executes identical handlers and
// reports bit-identical statistics. Phase 2 continues on the
// forest.State that Controlled-GHS hands over: it refreshes NbrFrag in
// place, builds its candidates from NbrVertexID and extends the MST
// mask with the flooded winners, and drops the fragment tree, on which
// it runs no operation.
package pipeline

import (
	"fmt"

	"congestmst/internal/bfstree"
	"congestmst/internal/congest"
	"congestmst/internal/forest"
	"congestmst/internal/mathx"
)

// Message kinds (range 100-119).
const (
	KindCand      uint8 = 100 // candidate edge as a bfstree.Item: A=fragA, B=w, C=packed(a,b), D=fragB
	KindCandDone  uint8 = 101 // end of candidate stream
	KindWin       uint8 = 102 // winning edge flood: A=w, B=packed(a,b)
	KindWinFlush  uint8 = 103 // end of winner flood; A = completion round
	KindNbrUpdate uint8 = 104 // A = fragment id
)

// Result is one vertex's view of the computed MST.
type Result struct {
	MSTPorts []int // ports of incident MST edges, ascending
	K        int   // base forest parameter (sqrt n)
}

// FiberFactory returns a fiber factory running Pipeline-MST on every
// vertex of an n-vertex graph; report is invoked with each vertex's
// Result as its fiber retires. Every vertex runs it from round 0 with
// the same root.
func FiberFactory(n, root int, report func(id int, res *Result)) func(id int) congest.Fiber {
	return congest.StepFiberFactory(n, func(c congest.Context) congest.Step {
		return Program(c, root, func(c congest.Context, res *Result) congest.Step {
			report(c.ID(), res)
			return congest.Done()
		})
	})
}

// Program is Pipeline-MST at one vertex as a Step program (see
// internal/congest/task.go), handing the completed Result to then.
func Program(c congest.Context, root int,
	then func(c congest.Context, res *Result) congest.Step) congest.Step {
	return bfstree.Build(c, root, func(c congest.Context, tau *bfstree.Tree) congest.Step {
		k := mathx.Max(1, mathx.ISqrtCeil(int(tau.N)))
		return forest.Program(c, k, nil, func(c congest.Context, st *forest.State) congest.Step {
			// Pipeline runs no fragment-tree operation: let the tree go
			// rather than hold it through the upcast and flood.
			st.Tree = nil

			// Refresh neighbor fragment ids (the forest's last phase
			// left them stale).
			deg := c.Degree()
			for p := 0; p < deg; p++ {
				c.Send(p, congest.Message{Kind: KindNbrUpdate, A: st.FragID})
			}
			got := 0
			return congest.Window(c, c.Round()+2, func(c congest.Context, in congest.Inbound) {
				if in.Msg.Kind != KindNbrUpdate {
					panic(fmt.Sprintf("pipeline: vertex %d: kind %d during neighbor update", c.ID(), in.Msg.Kind))
				}
				st.NbrFrag[in.Port] = in.Msg.A
				got++
			}, func(c congest.Context) congest.Step {
				if got != deg {
					panic(fmt.Sprintf("pipeline: vertex %d heard %d of %d neighbors", c.ID(), got, deg))
				}

				// Own candidates: every incident inter-fragment edge,
				// owned by its lower-id endpoint to halve the
				// duplicates. Ascending (w, packed(a,b)) is the unique
				// edge order.
				var own []bfstree.Item
				for p, nbr := range st.NbrFrag {
					if nbr == st.FragID || st.NbrVertexID[p] < int64(c.ID()) {
						continue
					}
					ab := forest.PackEdge(int64(c.ID()), st.NbrVertexID[p])
					own = append(own, bfstree.Item{Group: st.FragID, W: c.Weight(p), U: ab, V: nbr})
				}

				// Pipeline every candidate edge to the τ root through
				// the cycle filter; the root's Results complete the MST.
				uf := &fragUF{parent: make(map[int64]int64)}
				up := bfstree.Upcast{Kind: KindCand, Done: KindCandDone, Keep: uf.acyclic}
				return tau.PipelinedUpcast(c, up, own, func(c congest.Context) congest.Step {
					return flood(c, tau, tau.Results, func(c congest.Context, chosen []int64) congest.Step {
						// Mark local MST ports among the flooded winners.
						for _, ab := range chosen {
							if p := st.PortOf(int64(c.ID()), ab); p >= 0 {
								st.MST[p] = true
							}
						}
						return then(c, &Result{MSTPorts: st.MSTPorts(), K: k})
					})
				})
			})
		})
	})
}

// flood broadcasts the winning edges from the root to every vertex
// (O(D + sqrt(n)/b) rounds, O(n·sqrt(n)) messages — the GKP98 cost),
// self-aligning on the completion round carried by the flush marker,
// and hands then the packed endpoints of every winner.
func flood(c congest.Context, tau *bfstree.Tree, winners []bfstree.Item,
	then func(c congest.Context, chosen []int64) congest.Step) congest.Step {
	b := int64(c.Bandwidth())
	var queue []congest.Message
	var chosen []int64
	flushed := tau.Root
	var deadline int64
	if tau.Root {
		for _, it := range winners {
			chosen = append(chosen, it.U)
			queue = append(queue, congest.Message{Kind: KindWin, A: it.W, B: it.U})
		}
		deadline = c.Round() + tau.Height + (int64(len(winners))+b)/b + 2
		queue = append(queue, congest.Message{Kind: KindWinFlush, A: deadline})
	}
	qHead := 0

	var iterate func(c congest.Context) congest.Step
	wake := func(c congest.Context, msgs []congest.Inbound) congest.Step {
		for _, in := range msgs {
			if in.Port != tau.ParentPort {
				panic(fmt.Sprintf("pipeline: vertex %d: flood from non-parent port %d", c.ID(), in.Port))
			}
			switch in.Msg.Kind {
			case KindWin:
				chosen = append(chosen, in.Msg.B)
				queue = append(queue, in.Msg)
			case KindWinFlush:
				flushed = true
				deadline = in.Msg.A
				queue = append(queue, in.Msg)
			default:
				panic(fmt.Sprintf("pipeline: vertex %d: kind %d during flood", c.ID(), in.Msg.Kind))
			}
		}
		return iterate(c)
	}
	iterate = func(c congest.Context) congest.Step {
		var sent int64
		for qHead < len(queue) && sent < b {
			for _, p := range tau.ChildPorts {
				c.Send(p, queue[qHead])
			}
			qHead++
			sent++
		}
		if flushed && qHead == len(queue) {
			return tau.Quiet(c, deadline, func(c congest.Context) congest.Step {
				return then(c, chosen)
			})
		}
		if qHead < len(queue) {
			return congest.Until(c.Round()+1, wake)
		}
		return congest.Await(wake)
	}
	return iterate(c)
}

// fragUF is a union-find over sparse fragment identities.
type fragUF struct {
	parent map[int64]int64
}

func (u *fragUF) find(x int64) int64 {
	p, ok := u.parent[x]
	if !ok || p == x {
		return x
	}
	root := u.find(p)
	u.parent[x] = root
	return root
}

// acyclic is the upcast's cycle filter. Items are candidate edges
// between fragments Group and V, offered in ascending order: it keeps
// one and joins its fragments unless they are joined already, in which
// case the edge closes a cycle with lighter kept edges and, by the
// cycle property, is not in the MST.
func (u *fragUF) acyclic(it bfstree.Item) bool {
	ra, rb := u.find(it.Group), u.find(it.V)
	if ra == rb {
		return false
	}
	u.parent[ra] = rb
	return true
}
