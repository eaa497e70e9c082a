package lint

import "testing"

// TestSnapshotSafety runs the analyzer over the snapshotsafety fixture:
// out-of-protocol writes, rogue publish-pointer stores and locks copied by
// value.
func TestSnapshotSafety(t *testing.T) {
	cfg := Config{Snapshot: SnapshotConfig{
		Pkg:        "fixture/snapshotsafety",
		Types:      []string{"snapshot"},
		AllowFuncs: []string{"New", "apply"},
		StoreFields: map[string][]string{
			"active": {"New", "apply"},
			"inUse":  {"process"},
		},
	}}
	checkFixture(t, SnapshotSafety, cfg, "fixture/snapshotsafety")
}

// TestPublishSafety runs the same analyzer over the publishsafety fixture:
// writes through a snapshot after its epoch publish, which the analyzer
// checks once PublishFields names the publish pointer.
func TestPublishSafety(t *testing.T) {
	cfg := Config{Snapshot: SnapshotConfig{
		Pkg:           "fixture/publishsafety",
		Types:         []string{"snapshot"},
		AllowFuncs:    []string{"apply", "swapShard"},
		StoreFields:   map[string][]string{"active": {"apply", "swapShard"}},
		PublishFields: []string{"active"},
	}}
	checkFixture(t, SnapshotSafety, cfg, "fixture/publishsafety")
}

// TestSnapshotSafetyBothFixtures scopes one config to the fixture module
// root so a single run covers both packages; the allow lists are the union
// of the protocol functions the two fixtures declare.
func TestSnapshotSafetyBothFixtures(t *testing.T) {
	cfg := Config{Snapshot: SnapshotConfig{
		Pkg:        "fixture",
		Types:      []string{"snapshot"},
		AllowFuncs: []string{"New", "apply", "swapShard"},
		StoreFields: map[string][]string{
			"active": {"New", "apply", "swapShard"},
			"inUse":  {"process"},
		},
		PublishFields: []string{"active"},
	}}
	checkFixture(t, SnapshotSafety, cfg, "fixture/snapshotsafety", "fixture/publishsafety")
}
