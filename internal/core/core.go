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
// handlers and reports bit-identical statistics. Steps 4 and 5 run as
// a stage machine over one record per vertex, as Controlled-GHS does in
// internal/forest: a stage enum says which step is under way, one step
// method ends a stage and enters the next, and every tree operation
// runs on the vertex's bfstree.Tree (τ) or on the fragops.Tree of its
// base fragment. That tree, the neighbor tables and the MST mask are
// the forest.State that Controlled-GHS hands over, continued in place,
// so a Boruvka phase allocates nothing at a vertex other than the τ
// root.
package core

import (
	"cmp"
	"fmt"
	"slices"

	"congestmst/internal/bfstree"
	"congestmst/internal/congest"
	"congestmst/internal/forest"
	"congestmst/internal/fragops"
	"congestmst/internal/graph"
	"congestmst/internal/mathx"
)

// Message kinds used by the Boruvka-over-τ stage (range 50-79).
const (
	KindNbrCoarse uint8 = 50 // neighbor update: A = coarse fragment id, B = vertex id
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
// Each stage's rounds run from the previous stage boundary (round 0
// for the first) to its own, the Round of its PhaseEvent.
type Metrics struct {
	N, Height      int64
	K              int
	BuildRounds    int64   // BFS tree + intervals
	ForestRounds   int64   // Controlled-GHS base forest
	RegisterRounds int64   // base-fragment measure, registration upcast and H_F broadcast
	PhaseRounds    []int64 // per Boruvka phase
	PhaseFragments []int   // |F̂_j| at the start of each phase
	BaseFragments  int     // |F|
	MaxFragHeight  int64   // H_F, the deepest base fragment tree
}

// Result is one vertex's view of the computed MST.
type Result struct {
	// MSTPorts lists the ports of this vertex's incident MST edges,
	// ascending.
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
	return bfstree.Build(c, cfg.Root, func(c congest.Context, tau *bfstree.Tree) congest.Step {
		k := chooseK(tau.N, tau.Height, int64(c.Bandwidth()), cfg.FixedK)
		var root *rootBook
		if tau.Root {
			root = &rootBook{m: cfg.Metrics, o: cfg.Observer, tau: tau, k: k}
			if root.m == nil {
				root.m = new(Metrics)
			}
		}
		root.boundary(c, "bfs-build")
		return forest.Program(c, k, cfg.ForestTrace, func(c congest.Context, st *forest.State) congest.Step {
			r := &boruvka{tau: tau, st: st, root: root, k: k, done: then}
			return r.start(c)
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

// stage names the part of the Boruvka-over-τ program a vertex is in;
// the comment gives the step and the operation or window that runs.
type stage uint8

const (
	stMeasure   stage = iota // register: base-fragment size and height convergecast
	stRegister               // register: (id, label, height) upcast over τ
	stHeight                 // register: broadcast of the height bound H_F
	stNbrUpdate              // (1) neighbor-update window
	stArgmin                 // (2) base-fragment MWOE argmin
	stUpcast                 // (3) min-filtered MWOE upcast over τ
	stDecide                 // (4) STOP/CONTINUE broadcast
	stRoute                  // (5) routed relabel downcast
	stRelabel                // (6) base-fragment relabel broadcast
	stMark                   // (7) MST-mark window
)

// boruvka is one vertex's record for the Boruvka-over-τ stage: plain
// data plus the stage it is in. Its only continuation and window
// handler are r.step and r.recv, bound once into next and handle by
// start; the live Context is always a parameter, never a field
// (engines re-point a shared per-shard Context between wakes). It is
// built when the base forest is done, on the State the forest handed
// over: base-fragment operations run on st.Tree, the neighbor update
// refreshes st.NbrFrag to coarse ids and MST marks extend st.MST.
type boruvka struct {
	tau  *bfstree.Tree
	st   *forest.State
	root *rootBook // the τ root's bookkeeping; nil at every other vertex
	k    int
	done func(c congest.Context, res *Result) congest.Step

	stage   stage
	phases  int // Boruvka phases merged so far
	heard   int // neighbor updates heard this phase
	coarse  int64
	fragWin int64 // window length for base-fragment tree operations
	winner  int   // argmin winner pointer

	// emitted holds the groups this vertex forwarded in the current τ
	// upcast, whose filter is keep.
	emitted map[int64]struct{}

	// next, handle and keep are r.step, r.recv and r.firstOfGroup,
	// bound once by start.
	next   func(c congest.Context) congest.Step
	handle func(c congest.Context, in congest.Inbound)
	keep   func(it bfstree.Item) bool
}

// rootBook is the τ root's part of the algorithm, allocated at the
// root alone: the stage boundaries it reports and the base fragments
// whose graph it merges. It keeps its account in m, the run's Metrics
// or its own when the run asked for none.
type rootBook struct {
	m     *Metrics
	o     congest.Observer
	tau   *bfstree.Tree
	k     int
	last  int64            // round of the last stage boundary
	frags []baseFrag       // every base fragment, ascending id
	pairs []bfstree.Routed // the relabel pairs of the current phase
}

// baseFrag is the τ root's record of one registered base fragment.
type baseFrag struct {
	id, label, coarse int64 // identity, routing label of its root, current coarse id
}

// boundary ends a stage. The stage took the rounds since the previous
// boundary (round 0 for the first), which go to Metrics, and the
// Observer gets the stage's PhaseEvent. On a nil book, at every vertex
// but the τ root, it does nothing.
func (b *rootBook) boundary(c congest.Context, name string) {
	if b == nil {
		return
	}
	rounds := c.Round() - b.last
	b.last = c.Round()
	ev := congest.PhaseEvent{Round: c.Round(), Name: name, K: b.k}
	switch m := b.m; name {
	case "bfs-build":
		m.N, m.Height, m.K, m.BuildRounds = b.tau.N, b.tau.Height, b.k, rounds
	case "base-forest":
		m.ForestRounds = rounds
	case "register":
		m.RegisterRounds, ev.Fragments = rounds, m.BaseFragments
	default:
		m.PhaseRounds = append(m.PhaseRounds, rounds)
		ev.Fragments = m.PhaseFragments[len(m.PhaseFragments)-1]
	}
	if b.o != nil {
		b.o.OnPhase(ev)
	}
}

// start takes over from the base forest and begins registration on
// the base fragment tree it left. Registration measures every base
// fragment, reports (id, label, height) to the τ root via a pipelined
// upcast, and distributes the global fragment-height bound H_F used to
// size later windows. Cost: O(k + D + |F|/b) rounds,
// O(n + D·|F|) messages — the paper's "upcast of |F_0| identities"
// step.
func (r *boruvka) start(c congest.Context) congest.Step {
	r.root.boundary(c, "base-forest")
	r.coarse = r.st.FragID
	r.next, r.handle, r.keep = r.step, r.recv, r.firstOfGroup

	// 12k+4 bounds the base fragment height: Controlled-GHS guarantees
	// strong diameter at most 6·2^ceil(log k) <= 12k (Theorem 4.3).
	r.stage = stMeasure
	return r.st.Tree.Converge(c, c.Round()+int64(12*r.k+6), true, [3]int64{1, 0, 0}, fragops.SizeHeight, r.next)
}

// phase starts a Boruvka phase with (1) the neighbor update: O(1)
// rounds, O(m) messages. It carries the vertex identity too, which a
// forest of singletons (k < 2, no Controlled-GHS phase) hands over
// unlearned.
func (r *boruvka) phase(c congest.Context) congest.Step {
	for p := 0; p < c.Degree(); p++ {
		c.Send(p, congest.Message{Kind: KindNbrCoarse, A: r.coarse, B: int64(c.ID())})
	}
	r.heard = 0
	r.stage = stNbrUpdate
	return congest.Window(c, c.Round()+2, r.handle, r.next)
}

// step ends the current stage and enters the next one. It is bound
// once into r.next, the continuation of every operation and window.
func (r *boruvka) step(c congest.Context) congest.Step {
	t := r.st.Tree
	switch r.stage {
	case stMeasure:
		r.stage = stRegister
		if !t.Root {
			return r.upcast(c)
		}
		return r.upcast(c, bfstree.Item{Group: r.st.FragID, W: t.Value[1], U: r.tau.Lo})

	case stRegister:
		var maxH int64
		if r.root != nil {
			maxH = r.root.register(r.tau.Results)
		}
		r.stage = stHeight
		return r.tau.SyncBroadcast(c, [3]int64{maxH}, r.next)

	case stHeight:
		r.fragWin = r.tau.Value[0] + 2
		r.root.boundary(c, "register")
		return r.phase(c)

	case stNbrUpdate:
		if r.heard != c.Degree() {
			panic(fmt.Sprintf("core: vertex %d heard %d of %d neighbors", c.ID(), r.heard, c.Degree()))
		}
		// (2) Each base fragment finds its lightest edge leaving the
		// coarse fragment: O(k) rounds, O(n) messages.
		r.stage = stArgmin
		return t.Argmin(c, c.Round()+r.fragWin, true, r.localCandidate(c), &r.winner, r.next)

	case stArgmin:
		// (3) Pipelined min-filtering upcast over τ: the root learns the
		// MWOE of every coarse fragment.
		r.stage = stUpcast
		if best := t.Value; t.Root && best != fragops.Sentinel {
			return r.upcast(c, bfstree.Item{Group: r.coarse, W: best[0], U: best[1], V: best[2]})
		}
		return r.upcast(c)

	case stUpcast:
		// (4) Root-side merge of the fragment graph, then the
		// STOP/CONTINUE decision.
		stop := int64(0)
		if r.root != nil {
			if len(r.tau.Results) == 0 {
				stop = 1
			} else {
				r.root.merge(r.tau.Results)
			}
		}
		r.stage = stDecide
		return r.tau.SyncBroadcast(c, [3]int64{stop}, r.next)

	case stDecide:
		if r.tau.Value[0] == 1 {
			return r.finish(c)
		}
		// (5) Interval-routed downcast of (F -> new coarse id, chosen
		// edge) to every base fragment root.
		var pairs []bfstree.Routed
		if r.root != nil {
			pairs = r.root.pairs
		}
		r.stage = stRoute
		return r.tau.RouteDown(c, pairs, r.next)

	case stRoute:
		// t still holds step (2)'s argmin, whose Root marks the base
		// fragment root.
		var payload [3]int64
		if mine := r.tau.Mine; t.Root {
			if len(mine) != 1 {
				panic(fmt.Sprintf("core: fragment root %d received %d routed pairs", c.ID(), len(mine)))
			}
			payload = [3]int64{mine[0].A, mine[0].B, 0}
		} else if len(mine) != 0 {
			panic(fmt.Sprintf("core: non-root vertex %d received routed pairs", c.ID()))
		}
		// (6) Broadcast the new identity (and the chosen MWOE) through
		// each base fragment.
		r.stage = stRelabel
		return t.Broadcast(c, c.Round()+r.fragWin, true, payload, r.next)

	case stRelabel:
		oldCoarse := r.coarse
		r.coarse = t.Value[0]
		// (7) The endpoint of the chosen MWOE inside the old coarse
		// fragment marks the edge and tells the far endpoint.
		if p := r.st.PortOf(int64(c.ID()), t.Value[1]); p >= 0 && r.st.NbrFrag[p] != oldCoarse {
			r.st.MST[p] = true
			c.Send(p, congest.Message{Kind: KindMSTMark})
		}
		r.stage = stMark
		return congest.Window(c, c.Round()+2, r.handle, r.next)

	default: // stMark
		r.root.boundary(c, "boruvka")
		if r.phases++; r.phases > 64 {
			panic("core: Boruvka did not halve (more than 64 phases)")
		}
		return r.phase(c)
	}
}

// recv is the handler of the phase's two windows.
func (r *boruvka) recv(c congest.Context, in congest.Inbound) {
	if r.stage == stNbrUpdate {
		if in.Msg.Kind != KindNbrCoarse {
			panic(fmt.Sprintf("core: vertex %d: kind %d during neighbor update", c.ID(), in.Msg.Kind))
		}
		r.st.NbrFrag[in.Port], r.st.NbrVertexID[in.Port] = in.Msg.A, in.Msg.B
		r.heard++
		return
	}
	if in.Msg.Kind != KindMSTMark {
		panic(fmt.Sprintf("core: vertex %d: kind %d during MST marking", c.ID(), in.Msg.Kind))
	}
	r.st.MST[in.Port] = true
}

// upcast starts a min-filtered upcast over τ of this vertex's items.
func (r *boruvka) upcast(c congest.Context, own ...bfstree.Item) congest.Step {
	clear(r.emitted)
	return r.tau.PipelinedUpcast(c, bfstree.Upcast{Kind: bfstree.KindUp, Done: bfstree.KindUpDone, Keep: r.keep}, own, r.next)
}

// firstOfGroup is the filter of both τ upcasts: a vertex's stream
// arrives in ascending order, so the first item of a group is the
// lightest in its subtree, and every later one is dropped.
func (r *boruvka) firstOfGroup(it bfstree.Item) bool {
	if _, dup := r.emitted[it.Group]; dup {
		return false
	}
	if r.emitted == nil {
		r.emitted = make(map[int64]struct{})
	}
	r.emitted[it.Group] = struct{}{}
	return true
}

// finish hands this vertex's Result to the program's continuation.
func (r *boruvka) finish(c congest.Context) congest.Step {
	return r.done(c, &Result{MSTPorts: r.st.MSTPorts(), FragID: r.coarse, K: r.k, BoruvkaPhases: r.phases})
}

// localCandidate returns this vertex's lightest edge leaving its coarse
// fragment as an argmin key (w, packed(a,b), target-coarse-id), or the
// sentinel.
func (r *boruvka) localCandidate(c congest.Context) [3]int64 {
	best := fragops.Sentinel
	for p, nbr := range r.st.NbrFrag {
		if nbr == r.coarse {
			continue
		}
		key := [3]int64{c.Weight(p), forest.PackEdge(int64(c.ID()), r.st.NbrVertexID[p]), nbr}
		if fragops.KeyLess(key, best) {
			best = key
		}
	}
	return best
}

// register records the base fragments the registration upcast
// brought, (id, height, label) each, and returns H_F, the largest
// height.
func (b *rootBook) register(regs []bfstree.Item) int64 {
	var maxH int64
	for _, it := range regs {
		b.frags = append(b.frags, baseFrag{id: it.Group, label: it.U, coarse: it.Group})
		maxH = max(maxH, it.W)
	}
	slices.SortFunc(b.frags, func(x, y baseFrag) int { return cmp.Compare(x.id, y.id) })
	b.m.BaseFragments, b.m.MaxFragHeight = len(b.frags), maxH
	return maxH
}

// merge merges the coarse fragment graph along the received MWOEs
// (Boruvka), relabels every component by its minimum member id, and
// leaves the routed relabel pairs for all base fragments in b.pairs.
// It walks the base fragments in ascending id, never map order: the
// pair order feeds bfstree's message streams, so map iteration here
// would leak schedule nondeterminism into the cross-engine
// Rounds/Messages/ByKind guarantee.
func (b *rootBook) merge(mins []bfstree.Item) {
	uf := graph.NewUnionFind(int(b.tau.N))
	chosen := make(map[int64]int64, len(mins)) // old coarse id -> packed MWOE
	for _, it := range mins {
		uf.Union(int(it.Group), int(it.V))
		chosen[it.Group] = it.U
	}
	count := make(map[int64]bool, len(b.frags))
	for _, f := range b.frags {
		count[f.coarse] = true
	}
	b.m.PhaseFragments = append(b.m.PhaseFragments, len(count))
	// New identity of a component: the minimum old coarse id inside it.
	newID := make(map[int]int64)
	for _, f := range b.frags {
		root := uf.Find(int(f.coarse))
		if cur, ok := newID[root]; !ok || f.coarse < cur {
			newID[root] = f.coarse
		}
	}
	b.pairs = b.pairs[:0]
	for i := range b.frags {
		f := &b.frags[i]
		edge, hasEdge := chosen[f.coarse]
		if !hasEdge {
			edge = -1
		}
		next := newID[uf.Find(int(f.coarse))]
		b.pairs = append(b.pairs, bfstree.Routed{Target: f.label, A: next, B: edge})
		f.coarse = next
	}
}
