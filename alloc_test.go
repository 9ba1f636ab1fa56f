package congestmst_test

import (
	"testing"

	"congestmst"
)

// elkinLollipopAllocBudget caps the allocations of one lockstep Elkin
// run on Lollipop(16, 128), which makes 7,453, and
// pipelineLollipopAllocBudget those of one Pipeline-MST run on the same
// graph, which makes 10,630. Every tree operation runs on a re-armed
// per-vertex record and allocates nothing, so what is left is each
// vertex's one-time setup: a -memprofile of the Elkin run puts 34 % of
// its allocations in building τ (bfstree), 25 % in the Boruvka records
// and their port slices (core), 22 % in the Controlled-GHS runners
// (forest) and 14 % in the fragops.Tree records of both. The Lockstep
// engine itself allocates almost nothing per round.
const (
	elkinLollipopAllocBudget    = 9_000
	pipelineLollipopAllocBudget = 12_000
)

func testRunAllocationBudget(t *testing.T, alg congestmst.Algorithm, budget int) {
	t.Helper()
	g := congestmst.Lollipop(16, 128, congestmst.GenOptions{Seed: 1})
	opts := congestmst.Options{Algorithm: alg, Engine: congestmst.Lockstep, Verify: congestmst.VerifyOff}
	var err error
	allocs := testing.AllocsPerRun(3, func() {
		if err == nil {
			_, err = congestmst.Run(g, opts)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > float64(budget) {
		t.Errorf("lockstep %s on Lollipop(16, 128): %.0f allocations per run, budget %d", alg, allocs, budget)
	}
}

func TestElkinRunAllocationBudget(t *testing.T) {
	testRunAllocationBudget(t, congestmst.Elkin, elkinLollipopAllocBudget)
}

func TestPipelineRunAllocationBudget(t *testing.T) {
	testRunAllocationBudget(t, congestmst.Pipeline, pipelineLollipopAllocBudget)
}
