package congestmst_test

import (
	"testing"

	"congestmst"
)

// elkinLollipopAllocBudget caps the allocations of one lockstep Elkin
// run on Lollipop(16, 128), which makes 6,458, and
// pipelineLollipopAllocBudget those of one Pipeline-MST run on the same
// graph, which makes 10,087. Every tree operation runs on a re-armed
// per-vertex record and allocates nothing, and the next stage continues
// on the records Controlled-GHS hands over, so what is left is each
// vertex's one-time setup: a -memprofile of the Elkin run puts 39 % of
// its allocations in building τ (bfstree), 27 % in the Controlled-GHS
// runners and their hand-over (forest), 22 % in the Boruvka records,
// their bound continuations and upcast filters (core) and 8 % in the
// one fragops.Tree per vertex. The Lockstep engine itself allocates
// almost nothing per round.
const (
	elkinLollipopAllocBudget    = 7_800
	pipelineLollipopAllocBudget = 11_300
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
