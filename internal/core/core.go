// Package core implements the paper's main contribution (Section 3):
// the deterministic distributed MST algorithm with O((D + sqrt(n))·
// log n) round complexity and O(m·log n + n·log n·log* n) message
// complexity in CONGEST, and O((D + sqrt(n/b))·log n) rounds in
// CONGEST(b log n) (Theorems 3.1 and 3.2).
//
// Structure, following the paper exactly:
//
//  1. Build an auxiliary BFS tree τ rooted at a designated vertex and
//     compute the interval labels used for routing (bfstree.Build).
//  2. Choose k = max(sqrt(n/b), D): for low diameters this is the
//     classical sqrt(n/b) regime, for high diameters k = D keeps the
//     per-phase downcast cost at O(D·n/k) = O(n) messages.
//  3. Build an (n/k, O(k)) base MST forest F (internal/forest).
//  4. Register the base fragments at the root of τ via a pipelined
//     convergecast (fragment id, routing label, fragment height).
//  5. Run Boruvka phases over the coarse forest F̂_j: each base
//     fragment finds its lightest edge leaving V(F̂), the candidates
//     are min-filtered up τ, the root merges the fragment graph
//     locally, and the new coarse identities travel back down τ by
//     interval routing, then through each base fragment.
//
// The ablation knob Config.FixedK pins k (e.g. to sqrt(n) regardless of
// D), reproducing the message-inefficient strategy that the paper's
// Section 1.2 identifies in [PRS16] for D >> sqrt(n).
//
// The whole algorithm is one Step program (Program); FiberFactory
// drives it on every vertex, so every engine executes identical
// handlers and reports bit-identical statistics.
package core

import (
	"fmt"
	"sort"

	"congestmst/internal/bfstree"
	"congestmst/internal/congest"
	"congestmst/internal/forest"
	"congestmst/internal/fragops"
	"congestmst/internal/graph"
	"congestmst/internal/mathx"
)

// Message kinds used by the Boruvka-over-τ stage (range 50-79).
const (
	KindNbrCoarse uint8 = 50 // neighbor update: A = coarse fragment id
	KindMSTMark   uint8 = 51 // "the edge between us joined the MST"
)

// Config parameterizes a run of the algorithm.
type Config struct {
	// Root designates the BFS root rt of τ (default vertex 0).
	Root int
	// FixedK pins the base-forest parameter k instead of the paper's
	// max(sqrt(n/b), D) rule. Used by the E5 ablation.
	FixedK int
	// ForestTrace, when non-nil, records Controlled-GHS phase
	// snapshots (see forest.Trace).
	ForestTrace *forest.Trace
	// Metrics, when non-nil, is filled in by the τ-root vertex with the
	// per-stage round decomposition of Equation (1).
	Metrics *Metrics
	// Observer, when non-nil, receives a PhaseEvent from the τ-root
	// vertex at every stage boundary — bfs-build, base-forest, register
	// (with |F|), and one per Boruvka phase (with |F̂_j|) — so a trace
	// shows where the rounds of a run went while it runs. Callbacks
	// execute inside the root vertex's fiber call.
	Observer congest.Observer
}

// Metrics is the τ-root's account of where rounds went (Equation (1)).
type Metrics struct {
	N, Height      int64
	K              int
	BuildRounds    int64   // BFS tree + intervals
	ForestRounds   int64   // Controlled-GHS base forest
	RegisterRounds int64   // fragment registration upcast
	PhaseRounds    []int64 // per Boruvka phase
	PhaseFragments []int   // |F̂_j| at the start of each phase
	BaseFragments  int     // |F|
	MaxFragHeight  int64   // H_F, the deepest base fragment tree
}

// Result is one vertex's view of the computed MST.
type Result struct {
	// MSTPorts lists the ports of this vertex's incident MST edges.
	MSTPorts []int
	// FragID is the final coarse fragment identity (one per connected
	// component; a single value on connected graphs).
	FragID int64
	// K is the base-forest parameter the run used.
	K int
	// BoruvkaPhases counts the executed Boruvka-over-τ phases.
	BoruvkaPhases int
}

// FiberFactory returns a fiber factory running the algorithm on every
// vertex of an n-vertex graph; report is invoked with each vertex's
// Result as its fiber retires. Every vertex runs it from round 0 with
// an identical Config; all vertices finish in the same round.
func FiberFactory(n int, cfg Config, report func(id int, res *Result)) func(id int) congest.Fiber {
	return congest.StepFiberFactory(n, func(c congest.Context) congest.Step {
		return Program(c, cfg, func(c congest.Context, res *Result) congest.Step {
			report(c.ID(), res)
			return congest.Done()
		})
	})
}

// Program is the full algorithm at one vertex as a Step program (see
// internal/congest/task.go), handing the completed Result to then.
func Program(c congest.Context, cfg Config,
	then func(c congest.Context, res *Result) congest.Step) congest.Step {
	return bfstree.BuildStep(c, cfg.Root, func(c congest.Context, tau *bfstree.Tree) congest.Step {
		n := tau.N
		b := int64(c.Bandwidth())

		k := chooseK(n, tau.Height, b, cfg.FixedK)
		if cfg.Metrics != nil && tau.Root {
			cfg.Metrics.N, cfg.Metrics.Height, cfg.Metrics.K = n, tau.Height, k
			cfg.Metrics.BuildRounds = c.Round()
		}
		if o := cfg.Observer; o != nil && tau.Root {
			o.OnPhase(congest.PhaseEvent{Round: c.Round(), Name: "bfs-build", K: k})
		}

		return forest.Program(c, k, cfg.ForestTrace, func(c congest.Context, st *forest.State) congest.Step {
			forestEnd := c.Round()
			if cfg.Metrics != nil && tau.Root {
				cfg.Metrics.ForestRounds = forestEnd - cfg.Metrics.BuildRounds
			}
			if o := cfg.Observer; o != nil && tau.Root {
				o.OnPhase(congest.PhaseEvent{Round: forestEnd, Name: "base-forest", K: k})
			}

			r := &boruvka{
				tau:       tau,
				st:        st,
				cfg:       cfg,
				k:         k,
				coarse:    st.FragID,
				nbrCoarse: make([]int64, c.Degree()),
				mstPorts:  make(map[int]bool),
			}
			if st.ParentPort >= 0 {
				r.mstPorts[st.ParentPort] = true
			}
			for _, p := range st.ChildPorts {
				r.mstPorts[p] = true
			}

			return r.register(c, k, func(c congest.Context) congest.Step {
				return r.loop(c, 0, func(c congest.Context, phases int) congest.Step {
					ports := make([]int, 0, len(r.mstPorts))
					for p := range r.mstPorts {
						ports = append(ports, p)
					}
					sortInts(ports)
					return then(c, &Result{
						MSTPorts:      ports,
						FragID:        r.coarse,
						K:             k,
						BoruvkaPhases: phases,
					})
				})
			})
		})
	})
}

// chooseK implements the paper's parameter rule: k = sqrt(n/b) in the
// small-diameter regime, k = D when D exceeds it (Sections 3).
// The BFS-tree height stands in for D (Height <= D <= 2·Height, which
// shifts constants only).
func chooseK(n, height, b int64, fixed int) int {
	if fixed > 0 {
		return fixed
	}
	k := int64(mathx.ISqrtCeil(int(n / b)))
	if height > k {
		k = height
	}
	if k < 1 {
		k = 1
	}
	return int(k)
}

// boruvka is the per-vertex state of the Boruvka-over-τ stage. It is
// plain data shared by every stage continuation; the live Context is
// always a parameter, never a field (engines re-point a shared
// per-shard Context between wakes).
type boruvka struct {
	tau *bfstree.Tree
	st  *forest.State
	cfg Config
	k   int

	coarse     int64
	phaseFrags int // |F̂_j| of the last merged phase (τ root only)
	nbrCoarse  []int64
	mstPorts   map[int]bool
	fragWin    int64 // window length for base-fragment tree operations
	winner     int   // argmin winner pointer

	// τ-root bookkeeping (empty elsewhere).
	fragLabel  map[int64]int64 // base fragment id -> routing label of its root
	fragCoarse map[int64]int64 // base fragment id -> current coarse id
}

// register measures every base fragment, reports (id, label, height) to
// the τ root via a pipelined upcast, and distributes the global
// fragment-height bound H_F used to size later windows. Cost:
// O(k + D + |F|/b) rounds, O(n + D·|F|) messages — the paper's
// "upcast of |F_0| identities" step.
func (r *boruvka) register(c congest.Context, k int, then func(c congest.Context) congest.Step) congest.Step {
	// 12k+4 bounds the base fragment height: Controlled-GHS guarantees
	// strong diameter at most 6·2^ceil(log k) <= 12k (Theorem 4.3).
	return fragops.ConvergeStep(c, r.st.ParentPort, r.st.ChildPorts,
		c.Round()+int64(12*k+6), true, [3]int64{1, 0, 0}, sizeHeight,
		func(c congest.Context, meas [3]int64, isFragRoot bool) congest.Step {
			var items []bfstree.Item
			if isFragRoot {
				items = []bfstree.Item{{Group: r.st.FragID, W: meas[1], U: r.tau.Lo, V: 0}}
			}
			regStart := c.Round()
			return r.tau.PipelinedUpcastStep(c, items, func(c congest.Context, regs []bfstree.Item) congest.Step {
				var maxH int64
				if r.tau.Root {
					r.fragLabel = make(map[int64]int64, len(regs))
					r.fragCoarse = make(map[int64]int64, len(regs))
					for _, it := range regs {
						r.fragLabel[it.Group] = it.U
						r.fragCoarse[it.Group] = it.Group
						if it.W > maxH {
							maxH = it.W
						}
					}
					if m := r.cfg.Metrics; m != nil {
						m.BaseFragments = len(regs)
						m.MaxFragHeight = maxH
					}
				}
				return r.tau.SyncBroadcastStep(c, congest.Message{A: maxH},
					func(c congest.Context, got congest.Message) congest.Step {
						r.fragWin = got.A + 2
						if m := r.cfg.Metrics; m != nil && r.tau.Root {
							m.RegisterRounds = c.Round() - regStart
						}
						if o := r.cfg.Observer; o != nil && r.tau.Root {
							o.OnPhase(congest.PhaseEvent{
								Round: c.Round(), Name: "register",
								Fragments: len(r.fragLabel), K: r.k,
							})
						}
						return then(c)
					})
			})
		})
}

// loop runs Boruvka phases until the τ root announces completion, then
// hands the number of executed phases to then.
func (r *boruvka) loop(c congest.Context, phases int,
	then func(c congest.Context, phases int) congest.Step) congest.Step {
	start := c.Round()
	return r.phase(c, func(c congest.Context, done bool) congest.Step {
		if m := r.cfg.Metrics; m != nil && r.tau.Root && !done {
			m.PhaseRounds = append(m.PhaseRounds, c.Round()-start)
		}
		if o := r.cfg.Observer; o != nil && r.tau.Root && !done {
			o.OnPhase(congest.PhaseEvent{
				Round: c.Round(), Name: "boruvka",
				Fragments: r.phaseFrags, K: r.k,
			})
		}
		if done {
			return then(c, phases)
		}
		if phases+1 > 64 {
			panic("core: Boruvka did not halve (more than 64 phases)")
		}
		return r.loop(c, phases+1, then)
	})
}

// phase executes one Boruvka phase; it hands then true when the root
// announced completion (in which case the phase did no merging).
func (r *boruvka) phase(c congest.Context,
	then func(c congest.Context, done bool) congest.Step) congest.Step {
	// (1) Neighbor update: O(1) rounds, O(m) messages.
	deg := c.Degree()
	for p := 0; p < deg; p++ {
		c.Send(p, congest.Message{Kind: KindNbrCoarse, A: r.coarse})
	}
	got := 0
	return fragops.WindowStep(c, c.Round()+2, func(c congest.Context, in congest.Inbound) {
		if in.Msg.Kind != KindNbrCoarse {
			panic(fmt.Sprintf("core: vertex %d: kind %d during neighbor update", c.ID(), in.Msg.Kind))
		}
		r.nbrCoarse[in.Port] = in.Msg.A
		got++
	}, func(c congest.Context) congest.Step {
		if got != deg {
			panic(fmt.Sprintf("core: vertex %d heard %d of %d neighbors", c.ID(), got, deg))
		}

		// (2) Each base fragment finds its lightest edge leaving the
		// coarse fragment: O(k) rounds, O(n) messages.
		return fragops.ArgminStep(c, r.st.ParentPort, r.st.ChildPorts,
			c.Round()+r.fragWin, true, r.localCandidate(c), &r.winner,
			func(c congest.Context, best [3]int64, isFragRoot bool) congest.Step {
				// (3) Pipelined min-filtering upcast over τ: the root
				// learns the MWOE of every coarse fragment.
				var items []bfstree.Item
				if isFragRoot && best != fragops.Sentinel {
					items = []bfstree.Item{{Group: r.coarse, W: best[0], U: best[1], V: best[2]}}
				}
				return r.tau.PipelinedUpcastStep(c, items, func(c congest.Context, mins []bfstree.Item) congest.Step {
					// (4) Root-side merge of the fragment graph, then the
					// STOP/CONTINUE decision.
					var pairs []bfstree.Routed
					stop := int64(0)
					if r.tau.Root {
						if len(mins) == 0 {
							stop = 1
						} else {
							pairs = r.mergeAtRoot(mins)
						}
					}
					return r.tau.SyncBroadcastStep(c, congest.Message{A: stop},
						func(c congest.Context, dec congest.Message) congest.Step {
							if dec.A == 1 {
								return then(c, true)
							}

							// (5) Interval-routed downcast of (F -> new
							// coarse id, chosen edge) to every base
							// fragment root.
							return r.tau.RouteDownStep(c, pairs, func(c congest.Context, mine []bfstree.Routed) congest.Step {
								var payload [3]int64
								if isFragRoot {
									if len(mine) != 1 {
										panic(fmt.Sprintf("core: fragment root %d received %d routed pairs", c.ID(), len(mine)))
									}
									payload = [3]int64{mine[0].A, mine[0].B, 0}
								} else if len(mine) != 0 {
									panic(fmt.Sprintf("core: non-root vertex %d received routed pairs", c.ID()))
								}

								// (6) Broadcast the new identity (and the
								// chosen MWOE) through each base fragment.
								return fragops.BroadcastStep(c, r.st.ParentPort, r.st.ChildPorts,
									c.Round()+r.fragWin, true, payload,
									func(c congest.Context, pay [3]int64, _ bool) congest.Step {
										oldCoarse := r.coarse
										r.coarse = pay[0]

										// (7) The endpoint of the chosen MWOE
										// inside the old coarse fragment marks
										// the edge and tells the far endpoint.
										if a, bb, ok := decodeEdge(pay[1]); ok {
											other := int64(-1)
											switch int64(c.ID()) {
											case a:
												other = bb
											case bb:
												other = a
											}
											if other >= 0 {
												if p := r.portTo(other); p >= 0 && r.nbrCoarse[p] != oldCoarse {
													r.mstPorts[p] = true
													c.Send(p, congest.Message{Kind: KindMSTMark})
												}
											}
										}
										return fragops.WindowStep(c, c.Round()+2, func(c congest.Context, in congest.Inbound) {
											if in.Msg.Kind != KindMSTMark {
												panic(fmt.Sprintf("core: vertex %d: kind %d during MST marking", c.ID(), in.Msg.Kind))
											}
											r.mstPorts[in.Port] = true
										}, func(c congest.Context) congest.Step {
											return then(c, false)
										})
									})
							})
						})
				})
			})
	})
}

// localCandidate returns this vertex's lightest edge leaving its coarse
// fragment as an argmin key (w, packed(a,b), target-coarse-id), or the
// sentinel.
func (r *boruvka) localCandidate(c congest.Context) [3]int64 {
	best := fragops.Sentinel
	for p := 0; p < c.Degree(); p++ {
		if r.nbrCoarse[p] == r.coarse {
			continue
		}
		key := [3]int64{c.Weight(p), encodeEdge(int64(c.ID()), r.st.NbrVertexID[p]), r.nbrCoarse[p]}
		if fragops.KeyLess(key, best) {
			best = key
		}
	}
	return best
}

// mergeAtRoot merges the coarse fragment graph along the received
// MWOEs (Boruvka), relabels every component by its minimum member id,
// and produces the routed relabel pairs for all base fragments.
func (r *boruvka) mergeAtRoot(mins []bfstree.Item) []bfstree.Routed {
	uf := graph.NewUnionFind(int(r.tau.N))
	chosen := make(map[int64]int64, len(mins)) // old coarse id -> packed MWOE
	for _, it := range mins {
		uf.Union(int(it.Group), int(it.V))
		chosen[it.Group] = it.U
	}
	// Iterate the base fragments in sorted order, never map order: the
	// routed-pair order below feeds bfstree's message streams, so map
	// iteration here would leak schedule nondeterminism into the
	// cross-engine Rounds/Messages/ByKind guarantee.
	frags := make([]int64, 0, len(r.fragCoarse))
	for f := range r.fragCoarse {
		frags = append(frags, f)
	}
	sortInt64s(frags)
	if m, o := r.cfg.Metrics, r.cfg.Observer; m != nil || o != nil {
		count := make(map[int64]bool, len(r.fragCoarse))
		for _, f := range frags {
			count[r.fragCoarse[f]] = true
		}
		r.phaseFrags = len(count)
		if m != nil {
			m.PhaseFragments = append(m.PhaseFragments, len(count))
		}
	}
	// New identity of a component: the minimum old coarse id inside it.
	newID := make(map[int]int64)
	for _, f := range frags {
		c := r.fragCoarse[f]
		root := uf.Find(int(c))
		if cur, ok := newID[root]; !ok || c < cur {
			newID[root] = c
		}
	}
	pairs := make([]bfstree.Routed, 0, len(r.fragCoarse))
	for _, f := range frags {
		c := r.fragCoarse[f]
		edge, hasEdge := chosen[c]
		if !hasEdge {
			edge = -1
		}
		next := newID[uf.Find(int(c))]
		pairs = append(pairs, bfstree.Routed{Target: r.fragLabel[f], A: next, B: edge})
		r.fragCoarse[f] = next
	}
	return pairs
}

// portTo returns the port leading to the neighbor with the given vertex
// id, or -1.
func (r *boruvka) portTo(id int64) int {
	for p, v := range r.st.NbrVertexID {
		if v == id {
			return p
		}
	}
	return -1
}

func sizeHeight(acc, child [3]int64) [3]int64 {
	acc[0] += child[0]
	if child[1]+1 > acc[1] {
		acc[1] = child[1] + 1
	}
	return acc
}

func encodeEdge(a, b int64) int64 {
	if a > b {
		a, b = b, a
	}
	return a<<32 | b
}

func decodeEdge(e int64) (a, b int64, ok bool) {
	if e < 0 {
		return 0, 0, false
	}
	return e >> 32, e & 0xffffffff, true
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// sortInt64s sorts the τ-root's base-fragment id list; unlike the
// port lists sortInts handles (length ≤ degree), this can be every
// base fragment in the graph, so it needs an O(n log n) sort.
func sortInt64s(s []int64) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}
