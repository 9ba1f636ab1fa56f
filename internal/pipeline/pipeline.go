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
// reports bit-identical statistics.
package pipeline

import (
	"fmt"
	"sort"

	"congestmst/internal/bfstree"
	"congestmst/internal/congest"
	"congestmst/internal/forest"
	"congestmst/internal/fragops"
	"congestmst/internal/mathx"
)

// Message kinds (range 100-119).
const (
	KindCand      uint8 = 100 // candidate edge: A=w, B=packed(a,b), C=fragA, D=fragB
	KindCandDone  uint8 = 101 // end of candidate stream
	KindWin       uint8 = 102 // winning edge flood: A=w, B=packed(a,b)
	KindWinFlush  uint8 = 103 // end of winner flood; A = completion round
	KindNbrUpdate uint8 = 104 // A = fragment id
)

// Result is one vertex's view of the computed MST.
type Result struct {
	MSTPorts []int // ports of incident MST edges
	K        int   // base forest parameter (sqrt n)
}

// edge is a candidate inter-fragment edge in transit.
type edge struct {
	w, ab, fa, fb int64
}

func edgeLess(a, b edge) bool {
	if a.w != b.w {
		return a.w < b.w
	}
	return a.ab < b.ab
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
	return bfstree.BuildStep(c, root, func(c congest.Context, tau *bfstree.Tree) congest.Step {
		k := mathx.Max(1, mathx.ISqrtCeil(int(tau.N)))
		return forest.Program(c, k, nil, func(c congest.Context, st *forest.State) congest.Step {
			mst := make(map[int]bool)
			if st.ParentPort >= 0 {
				mst[st.ParentPort] = true
			}
			for _, p := range st.ChildPorts {
				mst[p] = true
			}

			// Refresh neighbor fragment ids (the forest's last phase
			// left them stale).
			deg := c.Degree()
			nbrFrag := make([]int64, deg)
			for p := 0; p < deg; p++ {
				c.Send(p, congest.Message{Kind: KindNbrUpdate, A: st.FragID})
			}
			got := 0
			return fragops.WindowStep(c, c.Round()+2, func(c congest.Context, in congest.Inbound) {
				if in.Msg.Kind != KindNbrUpdate {
					panic(fmt.Sprintf("pipeline: vertex %d: kind %d during neighbor update", c.ID(), in.Msg.Kind))
				}
				nbrFrag[in.Port] = in.Msg.A
				got++
			}, func(c congest.Context) congest.Step {
				if got != deg {
					panic(fmt.Sprintf("pipeline: vertex %d heard %d of %d neighbors", c.ID(), got, deg))
				}

				// Own candidates: every incident inter-fragment edge,
				// owned by the lower-id endpoint to halve the duplicates.
				var own []edge
				for p := 0; p < deg; p++ {
					if nbrFrag[p] == st.FragID || st.NbrVertexID[p] < int64(c.ID()) {
						continue
					}
					a, b := int64(c.ID()), st.NbrVertexID[p]
					lo, hi := a, b
					if lo > hi {
						lo, hi = hi, lo
					}
					own = append(own, edge{w: c.Weight(p), ab: lo<<32 | hi, fa: st.FragID, fb: nbrFrag[p]})
				}

				return upcastStep(c, tau, own, func(c congest.Context, winners []edge) congest.Step {
					return floodStep(c, tau, winners, func(c congest.Context, chosen []edge) congest.Step {
						// Mark local MST ports among the flooded winners.
						for _, e := range chosen {
							a, b := e.ab>>32, e.ab&0xffffffff
							var other int64 = -1
							switch int64(c.ID()) {
							case a:
								other = b
							case b:
								other = a
							}
							if other < 0 {
								continue
							}
							for p := 0; p < deg; p++ {
								if st.NbrVertexID[p] == other {
									mst[p] = true
								}
							}
						}
						ports := make([]int, 0, len(mst))
						for p := range mst {
							ports = append(ports, p)
						}
						sort.Ints(ports)
						return then(c, &Result{MSTPorts: ports, K: k})
					})
				})
			})
		})
	})
}

// upcastStep pipelines candidate edges to the τ root with per-vertex
// cycle filtering. The root hands then the edges that complete the MST;
// other vertices hand nil.
func upcastStep(c congest.Context, tau *bfstree.Tree, own []edge,
	then func(c congest.Context, winners []edge) congest.Step) congest.Step {
	b := c.Bandwidth()
	sort.Slice(own, func(i, j int) bool { return edgeLess(own[i], own[j]) })
	ownIdx := 0

	childIdx := make(map[int]int, len(tau.ChildPorts))
	for i, p := range tau.ChildPorts {
		childIdx[p] = i
	}
	bufs := make([][]edge, len(tau.ChildPorts))
	heads := make([]int, len(tau.ChildPorts))
	done := make([]bool, len(tau.ChildPorts))
	doneCount := 0

	uf := newFragUF()
	var accepted []edge

	next := func() (edge, bool, bool) { // (min, available, exhausted)
		exhausted := true
		var best edge
		have := false
		if ownIdx < len(own) {
			best, have = own[ownIdx], true
			exhausted = false
		}
		for i := range bufs {
			if heads[i] < len(bufs[i]) {
				e := bufs[i][heads[i]]
				if !have || edgeLess(e, best) {
					best, have = e, true
				}
				exhausted = false
			} else if !done[i] {
				return edge{}, false, false
			}
		}
		return best, have, exhausted
	}
	consume := func(e edge) {
		if ownIdx < len(own) && own[ownIdx] == e {
			ownIdx++
			return
		}
		for i := range bufs {
			if heads[i] < len(bufs[i]) && bufs[i][heads[i]] == e {
				heads[i]++
				return
			}
		}
		panic("pipeline: consumed edge not found")
	}

	var iterate func(c congest.Context) congest.Step
	wake := func(c congest.Context, msgs []congest.Inbound) congest.Step {
		for _, in := range msgs {
			i, isChild := childIdx[in.Port]
			if !isChild {
				panic(fmt.Sprintf("pipeline: vertex %d: upcast from non-child port %d", c.ID(), in.Port))
			}
			switch in.Msg.Kind {
			case KindCand:
				e := edge{w: in.Msg.A, ab: in.Msg.B, fa: in.Msg.C, fb: in.Msg.D}
				if n := len(bufs[i]); n > 0 && !edgeLess(bufs[i][n-1], e) {
					panic("pipeline: child stream not sorted")
				}
				bufs[i] = append(bufs[i], e)
			case KindCandDone:
				if done[i] {
					panic("pipeline: duplicate CandDone")
				}
				done[i] = true
				doneCount++
			default:
				panic(fmt.Sprintf("pipeline: vertex %d: kind %d during upcast", c.ID(), in.Msg.Kind))
			}
		}
		return iterate(c)
	}
	iterate = func(c congest.Context) congest.Step {
		sent := 0
		for sent < b {
			e, ok, _ := next()
			if !ok {
				break
			}
			consume(e)
			if !uf.union(e.fa, e.fb) {
				continue // closes a cycle: by the cycle property, not in the MST
			}
			if tau.Root {
				accepted = append(accepted, e)
				continue
			}
			c.Send(tau.ParentPort, congest.Message{Kind: KindCand, A: e.w, B: e.ab, C: e.fa, D: e.fb})
			sent++
		}
		_, pending, exhausted := next()
		if exhausted && doneCount == len(tau.ChildPorts) {
			if tau.Root {
				return then(c, accepted)
			}
			if sent >= b {
				// The bandwidth budget is spent: wait a round before the
				// CandDone marker. Any concurrently delivered messages
				// are discarded (there are none: every child already
				// sent its CandDone).
				return congest.Quiesce(func(c congest.Context, _ []congest.Inbound) congest.Step {
					c.Send(tau.ParentPort, congest.Message{Kind: KindCandDone})
					return then(c, nil)
				})
			}
			c.Send(tau.ParentPort, congest.Message{Kind: KindCandDone})
			return then(c, nil)
		}
		if pending {
			return congest.Quiesce(wake)
		}
		return congest.Await(wake)
	}
	return iterate(c)
}

// floodStep broadcasts the winning edges from the root to every vertex
// (O(D + sqrt(n)/b) rounds, O(n·sqrt(n)) messages — the GKP98 cost),
// self-aligning on the completion round carried by the flush marker.
func floodStep(c congest.Context, tau *bfstree.Tree, winners []edge,
	then func(c congest.Context, all []edge) congest.Step) congest.Step {
	b := int64(c.Bandwidth())
	var queue []congest.Message
	var all []edge
	flushed := tau.Root
	var deadline int64
	if tau.Root {
		all = winners
		for _, e := range winners {
			queue = append(queue, congest.Message{Kind: KindWin, A: e.w, B: e.ab})
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
				all = append(all, edge{w: in.Msg.A, ab: in.Msg.B})
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
			return waitQuietStep(c, deadline, func(c congest.Context) congest.Step {
				return then(c, all)
			})
		}
		if qHead < len(queue) {
			return congest.Quiesce(wake)
		}
		return congest.Await(wake)
	}
	return iterate(c)
}

// waitQuietStep parks until round t0, asserting silence on the way (an
// early wake means a protocol violation).
func waitQuietStep(c congest.Context, t0 int64,
	then func(c congest.Context) congest.Step) congest.Step {
	if c.Round() > t0 {
		panic(fmt.Sprintf("pipeline: vertex %d past alignment round %d", c.ID(), t0))
	}
	var loop func(c congest.Context, msgs []congest.Inbound) congest.Step
	loop = func(c congest.Context, msgs []congest.Inbound) congest.Step {
		if len(msgs) != 0 {
			panic(fmt.Sprintf("pipeline: vertex %d: %d stray messages before %d", c.ID(), len(msgs), t0))
		}
		if c.Round() < t0 {
			return congest.Until(t0, loop)
		}
		return then(c)
	}
	return loop(c, nil)
}

// fragUF is a union-find over sparse fragment identities.
type fragUF struct {
	parent map[int64]int64
}

func newFragUF() *fragUF { return &fragUF{parent: make(map[int64]int64)} }

func (u *fragUF) find(x int64) int64 {
	p, ok := u.parent[x]
	if !ok || p == x {
		return x
	}
	root := u.find(p)
	u.parent[x] = root
	return root
}

func (u *fragUF) union(a, b int64) bool {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return false
	}
	u.parent[ra] = rb
	return true
}
