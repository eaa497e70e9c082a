package engine

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/smbm"
	"repro/internal/telemetry"
)

// waitHealth polls until shard si reaches want or the deadline passes.
func waitHealth(t *testing.T, e *Engine, si int, want ShardHealth) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if e.Health(si) == want {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatalf("shard %d stuck in %s, want %s", si, e.Health(si), want)
}

// TestEngineQuarantineAndResync is the headline regression test for the
// former divergence panic: corrupting one shard's replicas must quarantine
// only that shard — DecideBatch keeps serving every packet from the healthy
// shards — and the background resync must rebuild it and return it to
// service, all visible in telemetry and without a single panic.
func TestEngineQuarantineAndResync(t *testing.T) {
	reg := telemetry.NewRegistry()
	e, err := New(Config{
		Shards:    4,
		Capacity:  64,
		Schema:    testSchema,
		Policy:    policy.MustParse(minPolicySrc),
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	fillRandom(t, e, 32, 11)

	// Hold the shard in quarantine until the degraded-service assertions
	// below have run; without this the background resync can win the race
	// and heal the shard before we observe the quarantine window.
	var mu sync.Mutex
	hold := true
	e.resyncFailHook = func(shard, attempt int) error {
		mu.Lock()
		defer mu.Unlock()
		if hold {
			return errors.New("held quarantined for the test")
		}
		return nil
	}

	// Silently corrupt shard 2: both its snapshots lose id 5 while the
	// authoritative table keeps it.
	if err := e.CorruptReplica(2, 5); err != nil {
		t.Fatal(err)
	}
	// The next write touching id 5 detects the divergence. It must report,
	// not panic, and it must still land on the healthy shards.
	err = e.Update(5, []int64{1, 2, 3})
	if !errors.Is(err, smbm.ErrReplicaDivergence) {
		t.Fatalf("Update on corrupted shard: err = %v, want ErrReplicaDivergence", err)
	}
	if got := e.Health(2); got == Healthy {
		t.Fatal("shard 2 still healthy after detected divergence")
	}
	if err := e.LastShardError(2); err == nil {
		t.Error("LastShardError(2) = nil, want the divergence")
	}

	// While shard 2 is out, every packet — including those homed on shard 2
	// — must still be decided by the healthy shards.
	pkts := make([]Packet, 1024)
	for i := range pkts {
		pkts[i] = Packet{Key: uint64(i)}
	}
	e.DecideBatch(pkts)
	for i, p := range pkts {
		if !p.OK {
			t.Fatalf("packet %d undecided during quarantine", i)
		}
	}

	// Release the shard: it resyncs from the authoritative table and
	// rejoins; afterwards the whole engine is back in sync (CheckSync covers
	// healthy shards, and all four must be healthy again).
	mu.Lock()
	hold = false
	mu.Unlock()
	waitHealth(t, e, 2, Healthy)
	if err := e.CheckSync(); err != nil {
		t.Fatalf("CheckSync after resync: %v", err)
	}
	if got := e.HealthyShards(); got != 4 {
		t.Fatalf("HealthyShards() = %d after resync, want 4", got)
	}
	if vals, ok := e.Metrics(5); !ok || vals[0] != 1 {
		t.Fatalf("authoritative metrics for id 5 = %v,%v", vals, ok)
	}

	snap := reg.Snapshot()
	if got := snap["thanos_engine_shards_quarantined_total"].(uint64); got != 1 {
		t.Errorf("shards_quarantined_total = %d, want 1", got)
	}
	if got := snap["thanos_engine_resyncs_completed_total"].(uint64); got != 1 {
		t.Errorf("resyncs_completed_total = %d, want 1", got)
	}
	if got := snap["thanos_engine_failover_decisions_total"].(uint64); got == 0 {
		t.Error("failover_decisions_total did not advance during quarantine")
	}
	if got := snap["thanos_engine_quarantined_shards"].(int64); got != 0 {
		t.Errorf("quarantined_shards gauge = %d after resync, want 0", got)
	}
}

// TestEngineResyncRetryBackoff forces the first resync attempts to fail and
// checks the loop retries (counting attempts) until the hook relents.
func TestEngineResyncRetryBackoff(t *testing.T) {
	reg := telemetry.NewRegistry()
	e, err := New(Config{
		Shards:     2,
		Capacity:   32,
		Schema:     testSchema,
		Policy:     policy.MustParse(minPolicySrc),
		Telemetry:  reg,
		ResyncBase: 100 * time.Microsecond,
		ResyncMax:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	fillRandom(t, e, 8, 3)

	var mu sync.Mutex
	attempts := 0
	e.resyncFailHook = func(shard, attempt int) error {
		mu.Lock()
		defer mu.Unlock()
		attempts++
		if attempts <= 3 {
			return fmt.Errorf("injected resync failure %d", attempts)
		}
		return nil
	}
	if err := e.CorruptReplica(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete(0); !errors.Is(err, smbm.ErrReplicaDivergence) {
		t.Fatalf("err = %v, want ErrReplicaDivergence", err)
	}
	waitHealth(t, e, 1, Healthy)
	mu.Lock()
	got := attempts
	mu.Unlock()
	if got != 4 {
		t.Errorf("resync attempts = %d, want 4 (3 injected failures + success)", got)
	}
	if n := reg.Snapshot()["thanos_engine_resync_retries_total"].(uint64); n != 3 {
		t.Errorf("resync_retries_total = %d, want 3", n)
	}
	if err := e.CheckSync(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineVerifyReplicasDetectsSilentCorruption: corruption that no write
// touches is invisible to the broadcast path; the scrubber must find and
// quarantine it.
func TestEngineVerifyReplicasDetectsSilentCorruption(t *testing.T) {
	e := newTestEngine(t, 3, minPolicySrc)
	fillRandom(t, e, 16, 9)
	if n := e.VerifyReplicas(); n != 0 {
		t.Fatalf("clean engine: VerifyReplicas() = %d, want 0", n)
	}
	if err := e.CorruptReplica(0, 7); err != nil {
		t.Fatal(err)
	}
	if n := e.VerifyReplicas(); n != 1 {
		t.Fatalf("VerifyReplicas() = %d, want 1", n)
	}
	waitHealth(t, e, 0, Healthy)
	if err := e.CheckSync(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineAllShardsQuarantined: with every shard out, batches degrade to
// OK=false rather than blocking or panicking, and service resumes once the
// shards resync.
func TestEngineAllShardsQuarantined(t *testing.T) {
	e, err := New(Config{
		Shards:     2,
		Capacity:   32,
		Schema:     testSchema,
		Policy:     policy.MustParse(minPolicySrc),
		ResyncBase: 100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	fillRandom(t, e, 8, 5)
	// Hold both shards out so the total-outage window is observable.
	var mu sync.Mutex
	hold := true
	e.resyncFailHook = func(shard, attempt int) error {
		mu.Lock()
		defer mu.Unlock()
		if hold {
			return errors.New("held quarantined for the test")
		}
		return nil
	}
	for si := 0; si < 2; si++ {
		if err := e.CorruptReplica(si, 0); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.VerifyReplicas(); n != 2 {
		t.Fatalf("VerifyReplicas() = %d, want 2", n)
	}
	if got := e.HealthyShards(); got != 0 {
		t.Fatalf("HealthyShards() = %d with every shard corrupted, want 0", got)
	}
	pkts := []Packet{{Key: 0}, {Key: 1}}
	e.DecideBatch(pkts)
	for i, p := range pkts {
		if p.OK || p.ID != -1 {
			t.Fatalf("packet %d decided with no healthy shard: (%d,%v)", i, p.ID, p.OK)
		}
	}
	mu.Lock()
	hold = false
	mu.Unlock()
	waitHealth(t, e, 0, Healthy)
	waitHealth(t, e, 1, Healthy)
	if id, ok := e.Decide(); !ok || id < 0 {
		t.Fatalf("Decide after full recovery: (%d,%v)", id, ok)
	}
}

// TestEngineCloseConcurrentDecideBatch is the shutdown-race regression test:
// Close racing in-flight DecideBatch callers must neither panic nor
// deadlock — batches either complete or come back undecided. Run under
// -race (make check / check-race-matrix).
func TestEngineCloseConcurrentDecideBatch(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		e, err := New(Config{Shards: 4, Capacity: 32, Schema: testSchema, Policy: policy.MustParse(minPolicySrc)})
		if err != nil {
			t.Fatal(err)
		}
		fillRandom(t, e, 8, int64(trial))
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				pkts := make([]Packet, 64)
				for rep := 0; rep < 50; rep++ {
					for i := range pkts {
						pkts[i] = Packet{Key: uint64(g*1000 + i)}
					}
					e.DecideBatch(pkts)
					for i, p := range pkts {
						// Either decided (pre-Close) or failed (post-Close);
						// never a stale in-between.
						if p.OK && p.ID < 0 {
							t.Errorf("packet %d: OK with negative id", i)
						}
					}
				}
			}(g)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			e.Close()
		}()
		close(start)
		wg.Wait()
		e.Close()
	}
}

// TestEngineCloseDuringResync: closing while a shard is mid-backoff must
// not hang Close or leak the resync goroutine.
func TestEngineCloseDuringResync(t *testing.T) {
	e, err := New(Config{
		Shards:     2,
		Capacity:   32,
		Schema:     testSchema,
		Policy:     policy.MustParse(minPolicySrc),
		ResyncBase: time.Hour, // backoff far beyond the test's lifetime
	})
	if err != nil {
		t.Fatal(err)
	}
	fillRandom(t, e, 8, 2)
	e.resyncFailHook = func(shard, attempt int) error {
		return errors.New("never succeeds")
	}
	if err := e.CorruptReplica(1, 0); err != nil {
		t.Fatal(err)
	}
	if n := e.VerifyReplicas(); n != 1 {
		t.Fatalf("VerifyReplicas() = %d, want 1", n)
	}
	done := make(chan struct{})
	go func() {
		e.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung waiting for a backing-off resync")
	}
}
