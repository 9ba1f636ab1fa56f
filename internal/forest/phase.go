package forest

import (
	"congestmst/internal/congest"
	"congestmst/internal/fragops"
)

// This file is the Controlled-GHS phase program in Step form (see
// internal/congest/task.go). Every stage takes the live Context as a
// parameter and chains into `then`; no Context is ever captured across
// a park.

// phase executes one Controlled-GHS phase (Section 4 of the paper).
// All vertices enter aligned and leave aligned; the window schedule is
// a deterministic function of the phase number alone, so no global
// coordination is needed.
func (r *runner) phase(c congest.Context, i int, then cont) congest.Step {
	h := heightBound(i)
	r.resetPhase()
	if r.trace != nil {
		r.trace.StartFrag[i][c.ID()] = r.fragID
	}

	// (1) Measure: the root learns the exact fragment size and tree
	// height, validating the Lemma 4.1 window budget as a side effect.
	return fragops.ConvergeStep(c, r.parent, r.children, c.Round()+h, true, [3]int64{1, 0, 0},
		func(acc, child [3]int64) [3]int64 {
			acc[0] += child[0]
			if child[1]+1 > acc[1] {
				acc[1] = child[1] + 1
			}
			return acc
		},
		func(c congest.Context, meas [3]int64, isRoot bool) congest.Step {
			if isRoot {
				r.size, r.height = meas[0], meas[1]
				if r.height+2 > h {
					failf("fragment %d height %d exceeds the Lemma 4.1 budget %d at phase %d",
						r.fragID, r.height, h, i)
				}
				if r.trace != nil {
					r.trace.Size[i][c.ID()] = r.size
					r.trace.Part[i][c.ID()] = r.size <= participateThreshold(i)
				}
			}

			// (2) Participation broadcast: F'_i membership (size <= 2^i).
			return fragops.BroadcastStep(c, r.parent, r.children, c.Round()+h, true,
				[3]int64{boolWord(r.size <= participateThreshold(i)), 0, 0},
				func(c congest.Context, part [3]int64, _ bool) congest.Step {
					r.participate = part[0] == 1

					// (3) Neighbor update: fragment id, vertex id and
					// participation bit to every neighbor (the paper's
					// per-phase O(|E|) step).
					return r.neighborUpdate(c, func(c congest.Context) congest.Step {
						// (4) MWOE search inside participating fragments.
						return r.mwoeSearch(c, i, h, func(c congest.Context) congest.Step {
							// (5) Announce the MWOE across the chosen edge;
							// detect mutual choices; report the owner's
							// findings to the root.
							return r.announce(c, h, func(c congest.Context) congest.Step {
								// (6) Cole-Vishkin 3-colouring of the
								// candidate fragment forest.
								return r.colourForest(c, h, func(c congest.Context) congest.Step {
									if r.trace != nil && r.isRoot() && r.participate {
										r.trace.Color[i][c.ID()] = r.color
									}
									// (7) Maximal matching in three colour
									// steps, then (8) merge.
									return r.matchSteps(c, h, 0, func(c congest.Context) congest.Step {
										return r.merge(c, i, h, func(c congest.Context) congest.Step {
											if r.trace != nil {
												r.trace.Frag[i][c.ID()] = r.fragID
												r.trace.Parent[i][c.ID()] = r.parent
											}
											return then(c)
										})
									})
								})
							})
						})
					})
				})
		})
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
	clear(r.childCol)
	r.sendUpd, r.selBorder = false, false
	r.winTmp, r.winMWOE = -1, -1
	r.fragSelecting, r.newFragSeen = false, false
	r.fragStatus = statusIsolated
}

func (r *runner) neighborUpdate(c congest.Context, then cont) congest.Step {
	deg := c.Degree()
	for p := 0; p < deg; p++ {
		c.Send(p, congest.Message{Kind: KindNbr, A: r.fragID, B: int64(c.ID()), C: boolWord(r.participate)})
	}
	got := 0
	return fragops.WindowStep(c, c.Round()+2, func(c congest.Context, in congest.Inbound) {
		if in.Msg.Kind != KindNbr {
			failf("vertex %d: kind %d during neighbor update", c.ID(), in.Msg.Kind)
		}
		r.nbrFrag[in.Port] = in.Msg.A
		r.nbrVid[in.Port] = in.Msg.B
		r.nbrPart[in.Port] = in.Msg.C == 1
		got++
	}, func(c congest.Context) congest.Step {
		if got != deg {
			failf("vertex %d: neighbor update heard %d of %d ports", c.ID(), got, deg)
		}
		return then(c)
	})
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
		if keyLess(key, best) {
			best = key
			r.bestPort = p
		}
	}
	return best
}

func (r *runner) mwoeSearch(c congest.Context, i int, h int64, then cont) congest.Step {
	var own [3]int64 = sentinel
	if r.participate {
		own = r.localMWOE(c)
	}
	return fragops.ArgminStep(c, r.parent, r.children, c.Round()+h, r.participate, own, &r.winTmp,
		func(c congest.Context, best [3]int64, isRoot bool) congest.Step {
			r.winMWOE = r.winTmp
			if isRoot {
				r.hasMWOE = best != sentinel
			}
			// Downcast an execution order to the winning vertex.
			return fragops.WinnerDowncastStep(c, r.parent, c.Round()+h, isRoot && r.hasMWOE,
				func() int { return r.winMWOE }, [3]int64{},
				func(c congest.Context, _ [3]int64, target bool) congest.Step {
					if target {
						r.isOwner = true
						r.ownerPort = r.bestPort
						if r.ownerPort < 0 {
							failf("vertex %d: MWOE owner without a local candidate", c.ID())
						}
					}
					return then(c)
				})
		})
}

func (r *runner) announce(c congest.Context, h int64, then cont) congest.Step {
	if r.isOwner {
		c.Send(r.ownerPort, congest.Message{Kind: KindAnnounce})
	}
	mutual := false
	return fragops.WindowStep(c, c.Round()+2, func(c congest.Context, in congest.Inbound) {
		if in.Msg.Kind != KindAnnounce {
			failf("vertex %d: kind %d during announce", c.ID(), in.Msg.Kind)
		}
		if !r.participate {
			return // large fragments ignore announces; merge-in marks edges later
		}
		if r.isOwner && in.Port == r.ownerPort {
			// Mutual MWOE: the higher-identity fragment becomes the parent.
			mutual = true
			if r.fragID > r.nbrFrag[in.Port] {
				r.foreign[in.Port] = true
			}
			return
		}
		r.foreign[in.Port] = true
	}, func(c congest.Context) congest.Step {
		// Report (mutualWinner, parentParticipates) from the owner to the root.
		return fragops.UpPathStep(c, r.parent, r.children, c.Round()+h, r.isOwner,
			[3]int64{boolWord(mutual && r.fragID > r.nbrFragSafe()), boolWord(r.isOwner && r.nbrPart[maxInt(r.ownerPort, 0)]), 0},
			func(c congest.Context, rep [3]int64, got bool) congest.Step {
				if r.isRoot() && r.participate && r.hasMWOE {
					if !got {
						failf("fragment %d: owner report missing", r.fragID)
					}
					r.mutualWinner = rep[0] == 1
					r.parentPart = rep[1] == 1
				}
				return then(c)
			})
	})
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

// colourForest 3-colours G'_i: cvIterations Cole-Vishkin halvings
// bring 64-bit identifiers to 6 colours, then shift-down + eliminate
// removes colours 5, 4 and 3. One extra exchange verifies properness.
// The schedule is flattened to 2·cvIterations-style indexed stages:
// idx < cvIterations are halvings, the next six alternate shift-down
// and eliminate for bad = 5, 4, 3, and the final stage verifies.
func (r *runner) colourForest(c congest.Context, h int64, then cont) congest.Step {
	return r.colourStage(c, h, 0, then)
}

func (r *runner) colourStage(c congest.Context, h int64, idx int, then cont) congest.Step {
	return r.colourExchange(c, h, func(c congest.Context, parent, childCommon int64) congest.Step {
		atRoot := r.isRoot() && r.participate
		switch {
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
			}
			return then(c)
		}
		return r.colourStage(c, h, idx+1, then)
	})
}

// colourExchange is one synchronous colour-communication step: the root
// floods its colour through the fragment, border vertices carry it
// across fragment-graph edges, and a convergecast returns the parent
// fragment's colour and the minimum child colour to the root. Cost:
// 2h+2 rounds, O(n) messages over all fragments.
func (r *runner) colourExchange(c congest.Context, h int64,
	then func(c congest.Context, parent, childMin int64) congest.Step) congest.Step {
	return fragops.BroadcastStep(c, r.parent, r.children, c.Round()+h, r.participate,
		[3]int64{r.color, 0, 0},
		func(c congest.Context, col [3]int64, _ bool) congest.Step {
			// Cross step: the MWOE owner pushes our colour up to the parent
			// fragment; border vertices holding announce edges push our colour
			// down to each child fragment.
			if r.participate {
				if r.isOwner && r.nbrPart[r.ownerPort] && !r.isMutualWinnerBorder() {
					c.Send(r.ownerPort, congest.Message{Kind: KindColor, A: col[0]})
				}
				for _, p := range sortedPorts(r.foreign) {
					c.Send(p, congest.Message{Kind: KindColor, A: col[0]})
				}
			}
			r.parentCol = cvNoParent
			clear(r.childCol)
			return fragops.WindowStep(c, c.Round()+2, func(c congest.Context, in congest.Inbound) {
				if in.Msg.Kind != KindColor {
					failf("vertex %d: kind %d during colour exchange", c.ID(), in.Msg.Kind)
				}
				if r.foreign[in.Port] {
					r.childCol[in.Port] = in.Msg.A
					return
				}
				if r.isOwner && in.Port == r.ownerPort {
					r.parentCol = in.Msg.A
					return
				}
				failf("vertex %d: colour from unrelated port %d", c.ID(), in.Port)
			}, func(c congest.Context) congest.Step {
				ownParent := int64cvOrSentinel(r.parentCol)
				ownChild := sentinel[0]
				for _, p := range sortedPorts(r.childCol) {
					if cc := r.childCol[p]; cc < ownChild {
						ownChild = cc
					}
				}
				return fragops.ConvergeStep(c, r.parent, r.children, c.Round()+h, r.participate,
					[3]int64{ownParent, ownChild, 0},
					func(acc, child [3]int64) [3]int64 {
						if child[0] < acc[0] {
							acc[0] = child[0]
						}
						if child[1] < acc[1] {
							acc[1] = child[1]
						}
						return acc
					},
					func(c congest.Context, acc [3]int64, isRoot bool) congest.Step {
						if !isRoot {
							return then(c, cvNoParent, cvNoParent)
						}
						parent, childMin := cvNoParent, cvNoParent
						if acc[0] != sentinel[0] {
							parent = acc[0]
						}
						if acc[1] != sentinel[0] {
							childMin = acc[1]
						}
						return then(c, parent, childMin)
					})
			})
		})
}

// isMutualWinnerBorder reports whether this owner vertex won a mutual
// MWOE tie (its fragment has no CV parent through this edge).
func (r *runner) isMutualWinnerBorder() bool {
	return r.isOwner && r.foreign[r.ownerPort]
}

// matchSteps runs the three colour classes of the maximal matching in
// sequence.
func (r *runner) matchSteps(c congest.Context, h int64, colour int64, then cont) congest.Step {
	if colour >= 3 {
		return then(c)
	}
	return r.matchStep(c, h, colour, func(c congest.Context) congest.Step {
		return r.matchSteps(c, h, colour+1, then)
	})
}

// matchStep runs one colour class of the maximal matching: fragments of
// colour cc that are still unmatched select one unmatched child, matched
// fragments notify their parents.
func (r *runner) matchStep(c congest.Context, h int64, cc int64, then cont) congest.Step {
	// (a) Selection broadcast.
	return fragops.BroadcastStep(c, r.parent, r.children, c.Round()+h, r.participate,
		[3]int64{boolWord(r.participate && r.color == cc && !r.matched), 0, 0},
		func(c congest.Context, sel [3]int64, _ bool) congest.Step {
			r.fragSelecting = r.participate && sel[0] == 1

			// (b) Candidate argmin: borders holding an unmatched child bid
			// with their vertex id.
			own := sentinel
			if r.fragSelecting {
				for _, p := range sortedPorts(r.foreign) {
					if !r.childMat[p] {
						own = [3]int64{0, int64(c.ID()), 0}
						break
					}
				}
			}
			return fragops.ArgminStep(c, r.parent, r.children, c.Round()+h, r.fragSelecting, own, &r.winTmp,
				func(c congest.Context, best [3]int64, isRoot bool) congest.Step {
					if isRoot && r.fragSelecting {
						r.candExists = best != sentinel
						if r.candExists {
							r.matched = true
							r.roleSelector = true
						}
					}

					// (c) Downcast the selection order to the winning border
					// vertex. Note: isRoot here is the argmin's report, which
					// is false at non-selecting fragments.
					return fragops.WinnerDowncastStep(c, r.parent, c.Round()+h,
						isRoot && r.fragSelecting && r.candExists,
						func() int { return r.winTmp }, [3]int64{},
						func(c congest.Context, _ [3]int64, target bool) congest.Step {
							// (d) Cross: propose the match over the lowest
							// unmatched child port.
							if target {
								q := -1
								for _, p := range sortedPorts(r.foreign) {
									if !r.childMat[p] {
										q = p
										break
									}
								}
								if q < 0 {
									failf("vertex %d: selected as match border with no unmatched child", c.ID())
								}
								r.childMat[q] = true
								r.treeCross[q] = true
								c.Send(q, congest.Message{Kind: KindMatch})
							}
							selectedHere := false
							return fragops.WindowStep(c, c.Round()+2, func(c congest.Context, in congest.Inbound) {
								if in.Msg.Kind != KindMatch {
									failf("vertex %d: kind %d during match cross", c.ID(), in.Msg.Kind)
								}
								if !r.isOwner || in.Port != r.ownerPort {
									failf("vertex %d: match proposal on non-MWOE port %d", c.ID(), in.Port)
								}
								selectedHere = true
								r.treeCross[in.Port] = true
							}, func(c congest.Context) congest.Step {
								// (e) The selected fragment's owner reports
								// MATCHED to its root.
								return fragops.UpPathStep(c, r.parent, r.children, c.Round()+h, selectedHere,
									[3]int64{1, 0, 0},
									func(c congest.Context, _ [3]int64, gotSel bool) congest.Step {
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

										// (f) Fragments matched in this step tell
										// their own parent border to send a
										// matched-update cross (so the parent
										// stops selecting them).
										initiate := isRoot && ((r.roleSelector && r.fragSelecting) || gotSel) && r.hasCVParent()
										return fragops.WinnerDowncastStep(c, r.parent, c.Round()+h, initiate,
											func() int { return r.winMWOE }, [3]int64{},
											func(c congest.Context, _ [3]int64, updTarget bool) congest.Step {
												if updTarget {
													r.sendUpd = true
												}

												// (g) Matched-update cross.
												if r.sendUpd {
													r.sendUpd = false
													c.Send(r.ownerPort, congest.Message{Kind: KindMatchedUp})
												}
												return fragops.WindowStep(c, c.Round()+2, func(c congest.Context, in congest.Inbound) {
													if in.Msg.Kind != KindMatchedUp {
														failf("vertex %d: kind %d during matched update", c.ID(), in.Msg.Kind)
													}
													if !r.foreign[in.Port] {
														failf("vertex %d: matched update on non-child port %d", c.ID(), in.Port)
													}
													r.childMat[in.Port] = true
												}, then)
											})
									})
							})
						})
				})
		})
}

// merge finishes the phase: every participating fragment learns its
// fate, unmatched fragments send merge-in crossings over their MWOE,
// and the new fragments are installed by a re-rooting broadcast from
// the component centres.
func (r *runner) merge(c congest.Context, i int, h int64, then cont) congest.Step {
	status := statusIsolated
	if r.isRoot() && r.participate {
		switch {
		case r.fragStatus == statusSelector || r.fragStatus == statusSelected:
			status = r.fragStatus
		case r.hasMWOE:
			status = statusUnmatched
		}
	}
	return fragops.BroadcastStep(c, r.parent, r.children, c.Round()+h, r.participate,
		[3]int64{status, 0, 0},
		func(c congest.Context, st [3]int64, _ bool) congest.Step {
			if r.participate {
				r.fragStatus = st[0]
			}

			// Merge-in crossings from unmatched fragments.
			if r.participate && r.fragStatus == statusUnmatched && r.isOwner {
				r.treeCross[r.ownerPort] = true
				c.Send(r.ownerPort, congest.Message{Kind: KindMergeIn})
			}
			return fragops.WindowStep(c, c.Round()+2, func(c congest.Context, in congest.Inbound) {
				if in.Msg.Kind != KindMergeIn {
					failf("vertex %d: kind %d during merge-in", c.ID(), in.Msg.Kind)
				}
				r.treeCross[in.Port] = true
			}, func(c congest.Context) congest.Step {
				// Re-rooting broadcast from the component centres. Window:
				// the new fragment diameter is at most 6·2^(i+1) (Lemma 4.1).
				end := c.Round() + 2*h + 4
				initiator := r.isRoot() && (!r.participate || r.fragStatus == statusSelector || r.fragStatus == statusIsolated)
				treePorts := make([]int, 0, len(r.children)+len(r.treeCross)+1)
				treePorts = append(treePorts, r.children...)
				if r.parent >= 0 {
					treePorts = append(treePorts, r.parent)
				}
				treePorts = append(treePorts, sortedPorts(r.treeCross)...)
				if initiator {
					r.newFragSeen = true
					r.parent = -1
					r.children = treePorts
					for _, p := range treePorts {
						c.Send(p, congest.Message{Kind: KindNewFrag, A: r.fragID})
					}
				}
				return fragops.WindowStep(c, end, func(c congest.Context, in congest.Inbound) {
					if in.Msg.Kind != KindNewFrag {
						failf("vertex %d: kind %d during re-rooting", c.ID(), in.Msg.Kind)
					}
					if r.newFragSeen {
						failf("vertex %d: second NewFrag broadcast (cycle in merge graph)", c.ID())
					}
					r.newFragSeen = true
					r.fragID = in.Msg.A
					arrival := false
					for _, p := range treePorts {
						if p == in.Port {
							arrival = true
						}
					}
					if !arrival {
						failf("vertex %d: NewFrag arrived on non-tree port %d", c.ID(), in.Port)
					}
					r.parent = in.Port
					r.children = r.children[:0]
					for _, p := range treePorts {
						if p != in.Port {
							r.children = append(r.children, p)
							c.Send(p, in.Msg)
						}
					}
				}, func(c congest.Context) congest.Step {
					if !r.newFragSeen {
						failf("vertex %d: never received the re-rooting broadcast", c.ID())
					}
					return then(c)
				})
			})
		})
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

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
