package forest

import (
	"slices"

	"congestmst/internal/congest"
	"congestmst/internal/fragops"
)

// This file is the Controlled-GHS phase program as a stage machine. A
// phase is a fixed sequence of stages, each either a fragment-tree
// operation on r.tree or one of the phase's own windows. When a stage
// ends, step reads its results and enters the next one; recv handles
// the messages of the phase's own windows. Both take the live Context
// as a parameter and never keep one across a park.

// stage names the part of a phase a vertex is in; the comment gives
// the paper's step and the operation or window that runs.
type stage uint8

const (
	stMeasure       stage = iota // (1) size and height convergecast
	stParticipate                // (2) participation broadcast
	stNbrUpdate                  // (3) neighbor-update window
	stMWOE                       // (4) MWOE argmin ...
	stOwner                      //     ... and the downcast to its owner
	stAnnounce                   // (5) announce window ...
	stReport                     //     ... and the owner's report to the root
	stColour                     // (6) colour broadcast ...
	stColourCross                //     ... colour cross window ...
	stColourReport               //     ... and convergecast of the neighbouring colours
	stSelect                     // (7) selection broadcast ...
	stCandidate                  //     ... candidate argmin ...
	stProposal                   //     ... downcast to the match border ...
	stMatchCross                 //     ... match cross window ...
	stMatchReport                //     ... the selected fragment's report ...
	stUpdateOrder                //     ... downcast of the matched-update order ...
	stMatchedUpdate              //     ... and the matched-update window
	stStatus                     // (8) status broadcast ...
	stMergeIn                    //     ... merge-in window ...
	stReroot                     //     ... and the re-rooting broadcast
)

// startPhase executes phase r.phase of Controlled-GHS (Section 4 of
// the paper), or hands the finished forest to done after the last
// one. All vertices enter aligned and leave aligned; the window
// schedule is a deterministic function of the phase number alone, so
// no global coordination is needed.
func (r *runner) startPhase(c congest.Context) congest.Step {
	i := r.phase
	if i >= r.t {
		return r.handOver(c)
	}
	r.h = heightBound(i)
	r.resetPhase()
	if r.trace != nil {
		r.trace.StartFrag[i][c.ID()] = r.fragID
	}

	// (1) Measure: the root learns the exact fragment size and tree
	// height, validating the Lemma 4.1 window budget as a side effect.
	r.stage = stMeasure
	return r.tree.Converge(c, c.Round()+r.h, true, [3]int64{1, 0, 0}, fragops.SizeHeight, r.next)
}

// handOver gives the finished forest to done as a State made of the
// runner's own records: the tree, the neighbor tables and, as the MST
// mask, the re-rooting step's treeCross. Nothing in them points back
// at the runner (a finished fragops operation drops its continuation
// and winner pointer), so the runner and its other port slices are
// garbage once done returns.
func (r *runner) handOver(c congest.Context) congest.Step {
	t, mst := r.tree, r.treeCross
	clear(mst)
	if t.Parent >= 0 {
		mst[t.Parent] = true
	}
	for _, p := range t.Children {
		mst[p] = true
	}
	return r.done(c, &State{FragID: r.fragID, Tree: t, NbrVertexID: r.nbrVid, NbrFrag: r.nbrFrag, MST: mst})
}

// step ends the current stage and enters the next one. It is bound
// once into r.next, the continuation of every operation and window of
// a phase.
func (r *runner) step(c congest.Context) congest.Step {
	t := r.tree
	switch r.stage {
	case stMeasure:
		if t.Root {
			r.size, r.height = t.Value[0], t.Value[1]
			if r.height+2 > r.h {
				failf("fragment %d height %d exceeds the Lemma 4.1 budget %d at phase %d",
					r.fragID, r.height, r.h, r.phase)
			}
			if r.trace != nil {
				r.trace.Size[r.phase][c.ID()] = r.size
				r.trace.Part[r.phase][c.ID()] = r.size <= participateThreshold(r.phase)
			}
		}
		// (2) Participation broadcast: F'_i membership (size <= 2^i).
		r.stage = stParticipate
		return t.Broadcast(c, c.Round()+r.h, true,
			[3]int64{boolWord(r.size <= participateThreshold(r.phase)), 0, 0}, r.next)

	case stParticipate:
		r.participate = t.Value[0] == 1
		// (3) Neighbor update: fragment id, vertex id and participation
		// bit to every neighbor (the paper's per-phase O(|E|) step).
		for p := 0; p < c.Degree(); p++ {
			c.Send(p, congest.Message{Kind: KindNbr, A: r.fragID, B: int64(c.ID()), C: boolWord(r.participate)})
		}
		r.nbrGot = 0
		return r.window(c, stNbrUpdate, c.Round()+2)

	case stNbrUpdate:
		if r.nbrGot != c.Degree() {
			failf("vertex %d: neighbor update heard %d of %d ports", c.ID(), r.nbrGot, c.Degree())
		}
		// (4) MWOE search inside participating fragments.
		own := sentinel
		if r.participate {
			own = r.localMWOE(c)
		}
		r.stage = stMWOE
		return t.Argmin(c, c.Round()+r.h, r.participate, own, &r.winTmp, r.next)

	case stMWOE:
		r.winMWOE = r.winTmp
		if t.Root {
			r.hasMWOE = t.Value != sentinel
		}
		// Downcast an execution order to the winning vertex.
		r.stage = stOwner
		return t.WinnerDowncast(c, c.Round()+r.h, t.Root && r.hasMWOE, &r.winMWOE, [3]int64{}, r.next)

	case stOwner:
		if t.Target {
			r.isOwner = true
			r.ownerPort = r.bestPort
			if r.ownerPort < 0 {
				failf("vertex %d: MWOE owner without a local candidate", c.ID())
			}
		}
		// (5) Announce the MWOE across the chosen edge; detect mutual
		// choices; report the owner's findings to the root.
		if r.isOwner {
			c.Send(r.ownerPort, congest.Message{Kind: KindAnnounce})
		}
		r.mutual = false
		return r.window(c, stAnnounce, c.Round()+2)

	case stAnnounce:
		// Report (mutualWinner, parentParticipates) from the owner to the root.
		r.stage = stReport
		return t.UpPath(c, c.Round()+r.h, r.isOwner,
			[3]int64{boolWord(r.mutual && r.fragID > r.nbrFragSafe()), boolWord(r.isOwner && r.nbrPart[max(r.ownerPort, 0)]), 0},
			r.next)

	case stReport:
		if r.isRoot() && r.participate && r.hasMWOE {
			if !t.Received {
				failf("fragment %d: owner report missing", r.fragID)
			}
			r.mutualWinner = t.Value[0] == 1
			r.parentPart = t.Value[1] == 1
		}
		// (6) Cole-Vishkin 3-colouring of the candidate fragment forest.
		r.cvIdx = 0
		return r.colourExchange(c)

	case stColour:
		// Cross step: the MWOE owner pushes our colour up to the parent
		// fragment; border vertices holding announce edges push our
		// colour down to each child fragment.
		if col := t.Value[0]; r.participate {
			if r.isOwner && r.nbrPart[r.ownerPort] && !r.isMutualWinnerBorder() {
				c.Send(r.ownerPort, congest.Message{Kind: KindColor, A: col})
			}
			for p, child := range r.foreign {
				if child {
					c.Send(p, congest.Message{Kind: KindColor, A: col})
				}
			}
		}
		r.parentCol, r.childColMin = cvNoParent, sentinel[0]
		return r.window(c, stColourCross, c.Round()+2)

	case stColourCross:
		r.stage = stColourReport
		return t.Converge(c, c.Round()+r.h, r.participate,
			[3]int64{int64cvOrSentinel(r.parentCol), r.childColMin, 0}, minPair, r.next)

	case stColourReport:
		return r.colourStep(c)

	case stSelect:
		r.fragSelecting = r.participate && t.Value[0] == 1
		// (b) Candidate argmin: borders holding an unmatched child bid
		// with their vertex id.
		own := sentinel
		if r.fragSelecting && r.unmatchedChild() >= 0 {
			own = [3]int64{0, int64(c.ID()), 0}
		}
		r.stage = stCandidate
		return t.Argmin(c, c.Round()+r.h, r.fragSelecting, own, &r.winTmp, r.next)

	case stCandidate:
		// The argmin reports a root only at selecting fragments; (f)
		// needs that report after two more operations re-armed t.
		r.candRoot = t.Root
		if t.Root && r.fragSelecting {
			r.candExists = t.Value != sentinel
			if r.candExists {
				r.matched = true
				r.roleSelector = true
			}
		}
		// (c) Downcast the selection order to the winning border vertex.
		r.stage = stProposal
		return t.WinnerDowncast(c, c.Round()+r.h, r.candRoot && r.fragSelecting && r.candExists,
			&r.winTmp, [3]int64{}, r.next)

	case stProposal:
		// (d) Cross: propose the match over the lowest unmatched child
		// port.
		if t.Target {
			q := r.unmatchedChild()
			if q < 0 {
				failf("vertex %d: selected as match border with no unmatched child", c.ID())
			}
			r.childMat[q] = true
			r.treeCross[q] = true
			c.Send(q, congest.Message{Kind: KindMatch})
		}
		r.selected = false
		return r.window(c, stMatchCross, c.Round()+2)

	case stMatchCross:
		// (e) The selected fragment's owner reports MATCHED to its root.
		r.stage = stMatchReport
		return t.UpPath(c, c.Round()+r.h, r.selected, [3]int64{1, 0, 0}, r.next)

	case stMatchReport:
		gotSel := t.Received
		if r.isRoot() && gotSel {
			if r.matched {
				failf("fragment %d: selected while already matched", r.fragID)
			}
			r.matched = true
			r.fragStatus = statusSelected
		}
		if r.isRoot() && r.roleSelector {
			r.fragStatus = statusSelector
		}
		// (f) Fragments matched in this step tell their own parent
		// border to send a matched-update cross (so the parent stops
		// selecting them).
		initiate := r.candRoot && ((r.roleSelector && r.fragSelecting) || gotSel) && r.hasCVParent()
		r.stage = stUpdateOrder
		return t.WinnerDowncast(c, c.Round()+r.h, initiate, &r.winMWOE, [3]int64{}, r.next)

	case stUpdateOrder:
		// (g) Matched-update cross.
		if t.Target {
			c.Send(r.ownerPort, congest.Message{Kind: KindMatchedUp})
		}
		return r.window(c, stMatchedUpdate, c.Round()+2)

	case stMatchedUpdate:
		r.matchCC++
		return r.matchStep(c)

	case stStatus:
		if r.participate {
			r.fragStatus = t.Value[0]
		}
		// Merge-in crossings from unmatched fragments.
		if r.participate && r.fragStatus == statusUnmatched && r.isOwner {
			r.treeCross[r.ownerPort] = true
			c.Send(r.ownerPort, congest.Message{Kind: KindMergeIn})
		}
		return r.window(c, stMergeIn, c.Round()+2)

	case stMergeIn:
		return r.reroot(c)

	case stReroot:
		if !r.newFragSeen {
			failf("vertex %d: never received the re-rooting broadcast", c.ID())
		}
		if r.trace != nil {
			r.trace.Frag[r.phase][c.ID()] = r.fragID
			r.trace.Parent[r.phase][c.ID()] = t.Parent
		}
		r.phase++
		return r.startPhase(c)
	}
	failf("vertex %d: no stage %d", c.ID(), r.stage)
	return congest.Done()
}

// window opens the phase's own window s until round end.
func (r *runner) window(c congest.Context, s stage, end int64) congest.Step {
	r.stage = s
	return congest.Window(c, end, r.handle, r.next)
}

// recv is the message handler of the phase's own windows, bound once
// into r.handle.
func (r *runner) recv(c congest.Context, in congest.Inbound) {
	switch r.stage {
	case stNbrUpdate:
		if in.Msg.Kind != KindNbr {
			failf("vertex %d: kind %d during neighbor update", c.ID(), in.Msg.Kind)
		}
		r.nbrFrag[in.Port] = in.Msg.A
		r.nbrVid[in.Port] = in.Msg.B
		r.nbrPart[in.Port] = in.Msg.C == 1
		r.nbrGot++

	case stAnnounce:
		if in.Msg.Kind != KindAnnounce {
			failf("vertex %d: kind %d during announce", c.ID(), in.Msg.Kind)
		}
		if !r.participate {
			return // large fragments ignore announces; merge-in marks edges later
		}
		if r.isOwner && in.Port == r.ownerPort {
			// Mutual MWOE: the higher-identity fragment becomes the parent.
			r.mutual = true
			if r.fragID > r.nbrFrag[in.Port] {
				r.foreign[in.Port] = true
			}
			return
		}
		r.foreign[in.Port] = true

	case stColourCross:
		if in.Msg.Kind != KindColor {
			failf("vertex %d: kind %d during colour exchange", c.ID(), in.Msg.Kind)
		}
		switch {
		case r.foreign[in.Port]:
			r.childColMin = min(r.childColMin, in.Msg.A)
		case r.isOwner && in.Port == r.ownerPort:
			r.parentCol = in.Msg.A
		default:
			failf("vertex %d: colour from unrelated port %d", c.ID(), in.Port)
		}

	case stMatchCross:
		if in.Msg.Kind != KindMatch {
			failf("vertex %d: kind %d during match cross", c.ID(), in.Msg.Kind)
		}
		if !r.isOwner || in.Port != r.ownerPort {
			failf("vertex %d: match proposal on non-MWOE port %d", c.ID(), in.Port)
		}
		r.selected = true
		r.treeCross[in.Port] = true

	case stMatchedUpdate:
		if in.Msg.Kind != KindMatchedUp {
			failf("vertex %d: kind %d during matched update", c.ID(), in.Msg.Kind)
		}
		if !r.foreign[in.Port] {
			failf("vertex %d: matched update on non-child port %d", c.ID(), in.Port)
		}
		r.childMat[in.Port] = true

	case stMergeIn:
		if in.Msg.Kind != KindMergeIn {
			failf("vertex %d: kind %d during merge-in", c.ID(), in.Msg.Kind)
		}
		r.treeCross[in.Port] = true

	case stReroot:
		if in.Msg.Kind != KindNewFrag {
			failf("vertex %d: kind %d during re-rooting", c.ID(), in.Msg.Kind)
		}
		if r.newFragSeen {
			failf("vertex %d: second NewFrag broadcast (cycle in merge graph)", c.ID())
		}
		r.newFragSeen = true
		r.fragID = in.Msg.A
		if !slices.Contains(r.treePorts, in.Port) {
			failf("vertex %d: NewFrag arrived on non-tree port %d", c.ID(), in.Port)
		}
		t := r.tree
		t.Parent = in.Port
		t.Children = t.Children[:0]
		for _, p := range r.treePorts {
			if p != in.Port {
				t.Children = append(t.Children, p)
				c.Send(p, in.Msg)
			}
		}

	default:
		failf("vertex %d: kind %d on port %d in stage %d, which opens no window",
			c.ID(), in.Msg.Kind, in.Port, r.stage)
	}
}

func (r *runner) resetPhase() {
	r.size, r.height = 0, 0
	r.participate, r.hasMWOE, r.parentPart, r.mutualWinner = false, false, false, false
	r.color = r.fragID
	r.matched, r.roleSelector, r.candExists = false, false, false
	r.isOwner, r.ownerPort, r.bestPort = false, -1, -1
	clear(r.foreign)
	clear(r.childMat)
	clear(r.treeCross)
	r.parentCol = cvNoParent
	r.winTmp, r.winMWOE = -1, -1
	r.fragSelecting, r.newFragSeen = false, false
	r.fragStatus = statusIsolated
}

// localMWOE returns this vertex's lightest outgoing edge as a
// (weight, minId, maxId) key, or the sentinel if none exists.
func (r *runner) localMWOE(c congest.Context) [3]int64 {
	best := sentinel
	r.bestPort = -1
	for p := 0; p < c.Degree(); p++ {
		if r.nbrFrag[p] == r.fragID {
			continue
		}
		a, b := int64(c.ID()), r.nbrVid[p]
		if a > b {
			a, b = b, a
		}
		key := [3]int64{c.Weight(p), a, b}
		if fragops.KeyLess(key, best) {
			best = key
			r.bestPort = p
		}
	}
	return best
}

func (r *runner) nbrFragSafe() int64 {
	if r.ownerPort < 0 {
		return -1
	}
	return r.nbrFrag[r.ownerPort]
}

// hasCVParent reports (at the root) whether this fragment has a parent
// in the candidate fragment forest G'_i.
func (r *runner) hasCVParent() bool {
	return r.hasMWOE && r.parentPart && !r.mutualWinner
}

// colourExchange starts one synchronous colour-communication step of
// the 3-colouring of G'_i: the root floods its colour through the
// fragment (stColour), border vertices carry it across fragment-graph
// edges (stColourCross), and a convergecast returns the parent
// fragment's colour and the minimum child colour to the root
// (stColourReport). Cost: 2h+2 rounds, O(n) messages over all
// fragments.
func (r *runner) colourExchange(c congest.Context) congest.Step {
	r.stage = stColour
	return r.tree.Broadcast(c, c.Round()+r.h, r.participate, [3]int64{r.color, 0, 0}, r.next)
}

// colourStep applies Cole-Vishkin step r.cvIdx at the fragment root
// once its exchange is done: cvIterations halvings bring 64-bit
// identifiers to 6 colours, the next six steps alternate shift-down and
// eliminate for bad = 5, 4, 3, and the final step verifies the
// 3-colouring and starts the matching.
func (r *runner) colourStep(c congest.Context) congest.Step {
	parent, childCommon := cvNoParent, cvNoParent
	if t := r.tree; t.Root {
		if t.Value[0] != sentinel[0] {
			parent = t.Value[0]
		}
		if t.Value[1] != sentinel[0] {
			childCommon = t.Value[1]
		}
	}
	atRoot := r.isRoot() && r.participate
	switch idx := r.cvIdx; {
	case idx < cvIterations:
		if atRoot {
			r.color = cvReduceStep(r.color, parent)
		}
	case idx < cvIterations+6:
		step := idx - cvIterations
		bad := int64(5 - step/2)
		if step%2 == 0 {
			if atRoot {
				r.color = cvShiftDown(r.color, parent)
			}
		} else if atRoot {
			r.color = cvEliminate(r.color, bad, parent, childCommon)
		}
	default:
		if atRoot {
			if r.color < 0 || r.color > 2 {
				failf("fragment %d: colour %d outside {0,1,2} after CV", r.fragID, r.color)
			}
			if r.color == parent || (r.color == childCommon && childCommon != cvNoParent) {
				failf("fragment %d: improper colouring (own %d, parent %d, children %d)",
					r.fragID, r.color, parent, childCommon)
			}
			if r.trace != nil {
				r.trace.Color[r.phase][c.ID()] = r.color
			}
		}
		// (7) Maximal matching in three colour steps, then (8) merge.
		r.matchCC = 0
		return r.matchStep(c)
	}
	r.cvIdx++
	return r.colourExchange(c)
}

// isMutualWinnerBorder reports whether this owner vertex won a mutual
// MWOE tie (its fragment has no CV parent through this edge).
func (r *runner) isMutualWinnerBorder() bool {
	return r.isOwner && r.foreign[r.ownerPort]
}

// unmatchedChild returns the lowest announce port whose child fragment
// is still unmatched, or -1.
func (r *runner) unmatchedChild() int {
	for p, child := range r.foreign {
		if child && !r.childMat[p] {
			return p
		}
	}
	return -1
}

// matchStep starts colour class r.matchCC of the maximal matching:
// fragments of that colour that are still unmatched select one
// unmatched child, matched fragments notify their parents. After the
// third class the phase merges.
func (r *runner) matchStep(c congest.Context) congest.Step {
	if r.matchCC >= 3 {
		return r.merge(c)
	}
	// (a) Selection broadcast.
	r.stage = stSelect
	return r.tree.Broadcast(c, c.Round()+r.h, r.participate,
		[3]int64{boolWord(r.participate && r.color == r.matchCC && !r.matched), 0, 0}, r.next)
}

// merge finishes the phase: every participating fragment learns its
// fate (stStatus), unmatched fragments send merge-in crossings over
// their MWOE (stMergeIn), and the new fragments are installed by a
// re-rooting broadcast from the component centres (stReroot).
func (r *runner) merge(c congest.Context) congest.Step {
	status := statusIsolated
	if r.isRoot() && r.participate {
		switch {
		case r.fragStatus == statusSelector || r.fragStatus == statusSelected:
			status = r.fragStatus
		case r.hasMWOE:
			status = statusUnmatched
		}
	}
	r.stage = stStatus
	return r.tree.Broadcast(c, c.Round()+r.h, r.participate, [3]int64{status, 0, 0}, r.next)
}

// reroot starts the re-rooting broadcast from the component centres.
// Window: the new fragment diameter is at most 6·2^(i+1) (Lemma 4.1).
func (r *runner) reroot(c congest.Context) congest.Step {
	t := r.tree
	end := c.Round() + 2*r.h + 4
	initiator := r.isRoot() && (!r.participate || r.fragStatus == statusSelector || r.fragStatus == statusIsolated)
	r.treePorts = append(r.treePorts[:0], t.Children...)
	if t.Parent >= 0 {
		r.treePorts = append(r.treePorts, t.Parent)
	}
	for p, cross := range r.treeCross {
		if cross {
			r.treePorts = append(r.treePorts, p)
		}
	}
	if initiator {
		r.newFragSeen = true
		t.Parent = -1
		t.Children = append(t.Children[:0], r.treePorts...)
		for _, p := range r.treePorts {
			c.Send(p, congest.Message{Kind: KindNewFrag, A: r.fragID})
		}
	}
	return r.window(c, stReroot, end)
}

// minPair is the colour convergecast's combine: the least parent and
// the least child colour seen in the subtree.
func minPair(acc, child [3]int64) [3]int64 {
	return [3]int64{min(acc[0], child[0]), min(acc[1], child[1]), acc[2]}
}

func boolWord(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func int64cvOrSentinel(c int64) int64 {
	if c == cvNoParent {
		return sentinel[0]
	}
	return c
}
