package congestmst_test

import (
	"testing"

	"congestmst"
)

// elkinLollipopAllocBudget caps the allocations of one lockstep Elkin
// run on Lollipop(16, 128), which makes 14,420 (14,427 under -race).
// A -memprofile of the run puts 58 % of them in the BFS-tree stages
// (bfstree; the pipelined upcast alone 26 %), 22 % in the Boruvka and
// registration closures of internal/core, 10 % in Controlled-GHS
// (forest) and 7 % in the per-vertex fragops.Tree records. The Lockstep
// engine itself allocates almost nothing per round.
const elkinLollipopAllocBudget = 20_000

func TestElkinRunAllocationBudget(t *testing.T) {
	g := congestmst.Lollipop(16, 128, congestmst.GenOptions{Seed: 1})
	opts := congestmst.Options{Engine: congestmst.Lockstep, Verify: congestmst.VerifyOff}
	var err error
	allocs := testing.AllocsPerRun(3, func() {
		if err == nil {
			_, err = congestmst.Run(g, opts)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > elkinLollipopAllocBudget {
		t.Errorf("lockstep Elkin on Lollipop(16, 128): %.0f allocations per run, budget %d",
			allocs, elkinLollipopAllocBudget)
	}
}
