package dynamic

import (
	"strings"
	"testing"

	"congestmst/internal/graph"
)

// chordedCycle is the service test suite's 4-cycle with a chord: MST is
// (0,1,w1), (1,2,w2), (2,3,w3) with weight 6.
func chordedCycle(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 2)
	b.AddEdge(2, 3, 3)
	b.AddEdge(3, 0, 4)
	b.AddEdge(0, 2, 5)
	return b.MustGraph()
}

func newChordedSession(t *testing.T) *Session {
	t.Helper()
	g := chordedCycle(t)
	mst, err := g.Kruskal()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(g, mst)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSessionValidatesTree(t *testing.T) {
	g := chordedCycle(t)
	cases := []struct {
		name string
		tree []int
		want string
	}{
		{"out of range", []int{0, 1, 9}, "out of range"},
		{"duplicate", []int{0, 1, 1}, "listed twice"},
		{"cycle", []int{0, 1, 4}, "cycle"}, // (0,1), (1,2), (0,2)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewSession(g, tc.tree)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

func TestNewSessionState(t *testing.T) {
	s := newChordedSession(t)
	if s.Weight() != 6 || s.TreeSize() != 3 || s.Components() != 1 {
		t.Errorf("weight=%d tree=%d components=%d, want 6/3/1",
			s.Weight(), s.TreeSize(), s.Components())
	}
}

func TestInsertSwapsPathMaximum(t *testing.T) {
	// Insert (1,3,w=0): the tree path 1-2-3 has maximum (2,3,w=3),
	// which must be displaced.
	s := newChordedSession(t)
	d, st, err := s.Apply([]EdgeOp{{Kind: Insert, U: 1, V: 3, W: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Swaps != 1 || d.Weight != 3 || d.Components != 1 {
		t.Errorf("delta=%+v stats=%+v, want one swap to weight 3", d, st)
	}
	if len(d.Added) != 1 || d.Added[0] != (graph.Edge{U: 1, V: 3, W: 0}) {
		t.Errorf("Added = %v", d.Added)
	}
	if len(d.Removed) != 1 || d.Removed[0] != (graph.Edge{U: 2, V: 3, W: 3}) {
		t.Errorf("Removed = %v", d.Removed)
	}
}

func TestInsertHeavyEdgeLeavesTreeUnchanged(t *testing.T) {
	s := newChordedSession(t)
	d, st, err := s.Apply([]EdgeOp{{Kind: Insert, U: 1, V: 3, W: 99}})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Unchanged() || st.NonTreeInserts != 1 || d.Weight != 6 {
		t.Errorf("delta=%+v stats=%+v, want unchanged tree at weight 6", d, st)
	}
}

func TestInsertTieBreaksLikeKruskal(t *testing.T) {
	// Insert (1,3) with w=3, tying the path maximum (2,3,w=3). The
	// lexicographic order (w, u, v) makes (1,3) the lighter edge, so
	// the tie must swap — exactly what a from-scratch Kruskal does.
	s := newChordedSession(t)
	d, st, err := s.Apply([]EdgeOp{{Kind: Insert, U: 3, V: 1, W: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Swaps != 1 || d.Weight != 6 {
		t.Errorf("delta=%+v stats=%+v, want tie swap keeping weight 6", d, st)
	}
	if len(d.Removed) != 1 || d.Removed[0] != (graph.Edge{U: 2, V: 3, W: 3}) {
		t.Errorf("Removed = %v", d.Removed)
	}
}

func TestDeleteNonTreeEdge(t *testing.T) {
	s := newChordedSession(t)
	d, st, err := s.Apply([]EdgeOp{{Kind: Delete, U: 0, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Unchanged() || st.NonTreeDeletes != 1 || d.Weight != 6 {
		t.Errorf("delta=%+v stats=%+v", d, st)
	}
}

func TestDeleteTreeEdgeFindsReplacement(t *testing.T) {
	// Delete (1,2): the cut {0,1} | {2,3} is crossed by (0,3,w=4) and
	// (0,2,w=5); the lighter one replaces.
	s := newChordedSession(t)
	d, st, err := s.Apply([]EdgeOp{{Kind: Delete, U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Replacements != 1 || d.Weight != 8 || d.Components != 1 {
		t.Errorf("delta=%+v stats=%+v, want replacement to weight 8", d, st)
	}
	if len(d.Added) != 1 || d.Added[0] != (graph.Edge{U: 0, V: 3, W: 4}) {
		t.Errorf("Added = %v", d.Added)
	}
}

func TestDeleteBridgeSplitsForest(t *testing.T) {
	g := graph.Path(4, graph.GenOptions{})
	s, err := NewSession(g, g.MSF())
	if err != nil {
		t.Fatal(err)
	}
	d, st, err := s.Apply([]EdgeOp{{Kind: Delete, U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Splits != 1 || d.Components != 2 || s.TreeSize() != 2 {
		t.Errorf("delta=%+v stats=%+v, want a split into 2 components", d, st)
	}
	// Re-inserting joins the components again.
	d, st, err = s.Apply([]EdgeOp{{Kind: Insert, U: 1, V: 2, W: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Joins != 1 || d.Components != 1 {
		t.Errorf("delta=%+v stats=%+v, want a join back to 1 component", d, st)
	}
}

func TestBatchDeltaCancels(t *testing.T) {
	// An edge that enters and leaves the tree within one batch must not
	// appear in the Delta.
	s := newChordedSession(t)
	d, st, err := s.Apply([]EdgeOp{
		{Kind: Insert, U: 1, V: 3, W: 0}, // swaps in, displacing (2,3)
		{Kind: Delete, U: 1, V: 3},       // cut repaired by (2,3) again
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Unchanged() || d.Weight != 6 {
		t.Errorf("delta=%+v, want net-unchanged tree at weight 6", d)
	}
	if st.Swaps != 1 || st.Replacements != 1 {
		t.Errorf("stats=%+v", st)
	}
}

func TestApplyInvalidOps(t *testing.T) {
	cases := []struct {
		name string
		op   EdgeOp
		want string
	}{
		{"insert existing", EdgeOp{Kind: Insert, U: 0, V: 1, W: 9}, "already present"},
		{"insert self-loop", EdgeOp{Kind: Insert, U: 2, V: 2, W: 1}, "self-loop"},
		{"insert out of range", EdgeOp{Kind: Insert, U: 0, V: 99, W: 1}, "out of range"},
		{"delete missing", EdgeOp{Kind: Delete, U: 1, V: 3}, "not present"},
		{"delete out of range", EdgeOp{Kind: Delete, U: -1, V: 2}, "out of range"},
		{"zero kind", EdgeOp{U: 0, V: 3}, "unknown op kind"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newChordedSession(t)
			_, _, err := s.Apply([]EdgeOp{tc.op})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

func TestApplyStopsAtInvalidOp(t *testing.T) {
	// The op before the invalid one lands; the one after does not, and
	// the error names the failing index.
	s := newChordedSession(t)
	d, _, err := s.Apply([]EdgeOp{
		{Kind: Insert, U: 1, V: 3, W: 0},
		{Kind: Delete, U: 0, V: 9},
		{Kind: Delete, U: 0, V: 1},
	})
	if err == nil || !strings.Contains(err.Error(), "op 1") {
		t.Fatalf("err = %v, want failure at op 1", err)
	}
	if d.Weight != 3 || s.TreeSize() != 3 {
		t.Errorf("weight=%d tree=%d, want the first op applied and the third not", d.Weight, s.TreeSize())
	}
}

func TestMaterializeRemap(t *testing.T) {
	s := newChordedSession(t)
	_, _, err := s.Apply([]EdgeOp{
		{Kind: Delete, U: 1, V: 2},         // base edge 1 dies, (0,3) joins the tree
		{Kind: Insert, U: 1, V: 2, W: 100}, // fresh heavy edge, appended
	})
	if err != nil {
		t.Fatal(err)
	}
	g2, remap, err := s.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != 4 || g2.M() != 5 {
		t.Fatalf("materialized n=%d m=%d, want 4/5", g2.N(), g2.M())
	}
	want := []int{0, -1, 1, 2, 3}
	for i, w := range want {
		if remap[i] != w {
			t.Errorf("remap[%d] = %d, want %d", i, remap[i], w)
		}
	}
	// The appended insert occupies the last index.
	if e := g2.Edge(4); e.U != 1 || e.V != 2 || e.W != 100 {
		t.Errorf("appended edge = %+v", e)
	}
	// The materialized graph's MSF agrees with the session's tree.
	msf := g2.MSF()
	if got := g2.TotalWeight(msf); got != s.Weight() {
		t.Errorf("materialized MSF weight %d, session weight %d", got, s.Weight())
	}
}

func TestTreeLiveIndicesMatchMaterializedMSF(t *testing.T) {
	// The session's tree, expressed as indices into the materialized
	// edge order, must be exactly the MSF a from-scratch recompute of
	// the materialized graph finds.
	s := newChordedSession(t)
	_, _, err := s.Apply([]EdgeOp{
		{Kind: Delete, U: 1, V: 2},
		{Kind: Insert, U: 1, V: 3, W: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	g2, _, err := s.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	got := s.TreeLiveIndices()
	want := g2.MSF()
	if len(got) != len(want) {
		t.Fatalf("TreeLiveIndices has %d edges, MSF %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("tree index %d = %d, MSF %d", i, got[i], want[i])
		}
	}
	// And a fresh session seeded from those indices is valid.
	if _, err := NewSession(g2, got); err != nil {
		t.Errorf("NewSession over TreeLiveIndices: %v", err)
	}
}

func TestTotalStatsAccumulate(t *testing.T) {
	s := newChordedSession(t)
	if _, _, err := s.Apply([]EdgeOp{{Kind: Insert, U: 1, V: 3, W: 0}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Apply([]EdgeOp{{Kind: Delete, U: 1, V: 3}}); err != nil {
		t.Fatal(err)
	}
	tot := s.TotalStats()
	if tot.Ops != 2 || tot.Inserts != 1 || tot.Deletes != 1 {
		t.Errorf("total stats %+v", tot)
	}
}

func TestParseOpsRoundTrip(t *testing.T) {
	const stream = `{"op":"insert","u":0,"v":5,"w":17}
{"op":"delete","u":3,"v":1}

{"op":"insert","u":2,"v":4}
`
	ops, err := ParseOps(strings.NewReader(stream), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []EdgeOp{
		{Kind: Insert, U: 0, V: 5, W: 17},
		{Kind: Delete, U: 3, V: 1},
		{Kind: Insert, U: 2, V: 4, W: 1}, // weight defaults to 1
	}
	if len(ops) != len(want) {
		t.Fatalf("parsed %d ops, want %d", len(ops), len(want))
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Errorf("op %d = %+v, want %+v", i, ops[i], want[i])
		}
	}
	// Marshal → parse round trip.
	var sb strings.Builder
	for _, op := range ops {
		b, err := op.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		sb.Write(b)
		sb.WriteByte('\n')
	}
	again, err := ParseOps(strings.NewReader(sb.String()), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if again[i] != want[i] {
			t.Errorf("round-tripped op %d = %+v, want %+v", i, again[i], want[i])
		}
	}
}

func TestParseOpsErrors(t *testing.T) {
	cases := []struct {
		name, in, want string
		maxOps         int
	}{
		{"unknown op", `{"op":"upsert","u":0,"v":1}`, "unknown op", 0},
		{"garbage", "nope", "op", 0},
		{"empty", "\n\n", "empty op stream", 0},
		{"over limit", `{"op":"delete","u":0,"v":1}` + "\n" + `{"op":"delete","u":1,"v":2}`, "exceeds the limit", 1},
		// The cap is enforced before the line is decoded: a stream that
		// is both oversized and malformed reports the size bound, so an
		// attacker cannot trade a parse error for unbounded growth.
		{"over limit before decode", `{"op":"delete","u":0,"v":1}` + "\n" + `nonsense`, "exceeds the limit", 1},
		// Strict-codec regression pins: each of these used to parse with
		// a silent default instead of erroring.
		{"unknown field wt", `{"op":"insert","u":1,"v":2,"wt":9}`, `unknown field "wt"`, 0},
		{"unknown field weight", `{"op":"insert","u":1,"v":2,"weight":9}`, `unknown field "weight"`, 0},
		{"weight on delete", `{"op":"delete","u":1,"v":2,"w":9}`, "delete op carries w", 0},
		{"insert missing v", `{"op":"insert","u":1,"w":9}`, "must set u and v", 0},
		{"delete missing u", `{"op":"delete","v":2}`, "must set u and v", 0},
		{"no op key", `{"u":1,"v":2,"w":9}`, "unknown op", 0},
		{"line numbered", `{"op":"delete","u":0,"v":1}` + "\n" + `{"op":"delete","u":1,"v":2,"w":3}`, "line 2", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseOps(strings.NewReader(tc.in), tc.maxOps)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

// FuzzParseOps feeds arbitrary bytes and op limits to the edge-update
// parser behind PATCH /graphs/{digest} and `mstrun -updates`. It must
// never panic. A stream it accepts holds at least one op, and at most
// maxOps when maxOps > 0, each an insert or a delete; written back one
// MarshalJSON object per line, the ops parse to themselves. The seed
// corpus (testdata/fuzz/FuzzParseOps) holds a valid mix, a delete with
// a weight, a missing endpoint, an unknown key and a stream over its
// op limit.
func FuzzParseOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, maxOps int) {
		ops, err := ParseOps(strings.NewReader(string(data)), maxOps)
		if err != nil {
			return
		}
		if len(ops) == 0 || (maxOps > 0 && len(ops) > maxOps) {
			t.Fatalf("accepted %d ops under a limit of %d", len(ops), maxOps)
		}
		var sb strings.Builder
		for i, op := range ops {
			if op.Kind != Insert && op.Kind != Delete {
				t.Fatalf("op %d has kind %v", i, op.Kind)
			}
			b, err := op.MarshalJSON()
			if err != nil {
				t.Fatalf("op %d %v: %v", i, op, err)
			}
			sb.Write(b)
			sb.WriteByte('\n')
		}
		again, err := ParseOps(strings.NewReader(sb.String()), 0)
		if err != nil {
			t.Fatalf("re-encoded ops do not parse: %v\n%s", err, sb.String())
		}
		if len(again) != len(ops) {
			t.Fatalf("re-encoded %d ops parse to %d", len(ops), len(again))
		}
		for i := range ops {
			if again[i] != ops[i] {
				t.Fatalf("op %d = %v, re-encoded parses to %v", i, ops[i], again[i])
			}
		}
	})
}
