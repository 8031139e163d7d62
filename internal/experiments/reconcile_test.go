package experiments

import (
	"testing"
	"time"
)

// TestChaosRecovery is the acceptance measurement: kill a node (with
// its depot) mid-workload and compare a warm spare against a cold
// revive. The asserted shape is that both paths recover with exact
// results, the right repair action fires, and the pre-warmed spare is
// the cheaper repair: between the kill and full service it takes nothing
// into its depot, from peers or from shared storage, where the revived
// node must refill its own. Times are host-noisy and a kill
// lands anywhere in the reconciler's 5 ms tick, so the two runs' times
// are compared from the start of the round that acted on the kill.
func TestChaosRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opts := RecoveryOptions{
		Warmup: 600 * time.Millisecond,
		Post:   4 * time.Second,
	}

	opts.Spare = true
	spare, err := ChaosRecovery(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Spare = false
	cold, err := ChaosRecovery(opts)
	if err != nil {
		t.Fatal(err)
	}

	for _, r := range []*RecoveryResult{spare, cold} {
		t.Logf("%s: baseline=%.0f qps ttr=%s restore=%s (repair %s, %d depot bytes) converge=%s queries=%d failed=%d",
			r.Mode, r.BaselineQPS, r.TimeToRecovered, r.TimeToRestored, r.RepairTime, r.RepairDepotBytes,
			r.TimeToConverged, r.Queries, r.Failed)
		if r.Wrong != 0 {
			t.Fatalf("%s: %d queries returned wrong results", r.Mode, r.Wrong)
		}
		if !r.Recovered {
			t.Fatalf("%s: throughput never recovered", r.Mode)
		}
		if r.TimeToRestored == 0 || r.RepairTime == 0 {
			t.Fatalf("%s: full service never restored after the kill", r.Mode)
		}
		if r.TimeToConverged == 0 {
			t.Fatalf("%s: reconciler never reconverged after the kill", r.Mode)
		}
	}
	if spare.Promotions == 0 {
		t.Fatal("spare run repaired without promoting the spare")
	}
	if cold.Revives == 0 {
		t.Fatal("cold run repaired without reviving the node")
	}
	if cold.Promotions != 0 {
		t.Fatal("cold run unexpectedly promoted a spare")
	}
	// The paper's point: flipping subscriptions onto a pre-warmed depot
	// restores full service without moving data, where a revived node
	// must catch up and re-warm its depot from peers and shared storage.
	if spare.RepairDepotBytes != 0 {
		t.Errorf("spare promotion took %d bytes into the spare's depot, want none", spare.RepairDepotBytes)
	}
	if cold.RepairDepotBytes <= 0 {
		t.Errorf("cold revive restored service with %d bytes in the revived depot, want it re-warmed", cold.RepairDepotBytes)
	}
	if spare.RepairTime >= cold.RepairTime {
		t.Errorf("spare promotion took %s from the round that saw the kill, not faster than cold revive (%s)",
			spare.RepairTime, cold.RepairTime)
	}
}
