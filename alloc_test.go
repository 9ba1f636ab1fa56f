package congestmst_test

import (
	"testing"

	"congestmst"
)

// elkinLollipopAllocBudget caps the allocations of one lockstep Elkin
// run on Lollipop(16, 128): a quarter of the 353,030 the run made while
// the fragment-tree operations and the Controlled-GHS stages still
// built closures per vertex per window. What remains is mostly
// Lockstep's per-round inbox storage and the BFS-tree stages.
const elkinLollipopAllocBudget = 88_000

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
