package engine

import (
	"io"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

// TestEngineConcurrentDecideAndWrite hammers DecideBatch from several
// goroutines while a writer streams add/delete/update through the epoch-swap
// path. Run under -race (make check does), this is the central data-race
// check for the snapshot-publication protocol; the invariant checks at the
// end catch replica divergence or torn writes.
func TestEngineConcurrentDecideAndWrite(t *testing.T) {
	e := newTestEngine(t, 4, testPolicySrc)
	fillRandom(t, e, 32, 3)

	const (
		readers          = 4
		batchesPerReader = 150
		writerOps        = 600
	)

	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			pkts := make([]Packet, 64)
			for b := 0; b < batchesPerReader; b++ {
				for i := range pkts {
					pkts[i] = Packet{Key: uint64(r.Uint32()), Out: r.Intn(2)}
				}
				e.DecideBatch(pkts)
				for i, p := range pkts {
					// The table always has ≥ 1 entry (the writer never
					// empties it), so the backup output guarantees a pick.
					if !p.OK || p.ID < 0 || p.ID >= 64 {
						t.Errorf("batch %d packet %d: bad decision (%d,%v)", b, i, p.ID, p.OK)
						return
					}
				}
			}
		}(int64(g + 1))
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(99))
		present := make([]bool, 64)
		count := 0
		for id := 0; id < 32; id++ {
			present[id] = true
			count++
		}
		for op := 0; op < writerOps; op++ {
			id := r.Intn(64)
			vals := []int64{int64(r.Intn(100)), int64(r.Intn(8192)), int64(r.Intn(10000))}
			switch {
			case present[id] && count > 1 && r.Intn(3) == 0:
				if err := e.Delete(id); err != nil {
					t.Errorf("delete %d: %v", id, err)
					return
				}
				present[id] = false
				count--
			case present[id]:
				if err := e.Update(id, vals); err != nil {
					t.Errorf("update %d: %v", id, err)
					return
				}
			default:
				if err := e.Add(id, vals); err != nil {
					t.Errorf("add %d: %v", id, err)
					return
				}
				present[id] = true
				count++
			}
		}
	}()

	wg.Wait()
	if err := e.CheckSync(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineConcurrentWriters checks that the writer path itself is safe
// under contention: many goroutines upserting disjoint id ranges must leave
// all replicas identical.
func TestEngineConcurrentWriters(t *testing.T) {
	e := newTestEngine(t, 2, minPolicySrc)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for id := base; id < base+8; id++ {
					if err := e.Upsert(id, []int64{int64(id*100 + rep), 0, 0}); err != nil {
						t.Errorf("upsert %d: %v", id, err)
						return
					}
				}
			}
		}(g * 8)
	}
	wg.Wait()
	if err := e.CheckSync(); err != nil {
		t.Fatal(err)
	}
	if got := e.Size(); got != 32 {
		t.Fatalf("size %d, want 32", got)
	}
}

// TestEngineConcurrentWritersTelemetry runs the same contended writers
// with telemetry attached and two scrapers exporting the registry
// throughout: the table counters must be race-free to read while writes
// land, the replicas must end identical, and the counters must end at the
// exact write count.
func TestEngineConcurrentWritersTelemetry(t *testing.T) {
	const (
		shards  = 2
		writers = 4
		ids     = 8
		reps    = 20
	)
	reg := telemetry.NewRegistry()
	e := newTelemetryEngine(t, shards, minPolicySrc, reg, 0)

	done := make(chan struct{})
	var scrapers sync.WaitGroup
	for s := 0; s < 2; s++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := reg.WritePrometheus(io.Discard); err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
				_ = reg.Snapshot()
			}
		}()
	}

	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for rep := 0; rep < reps; rep++ {
				for id := base; id < base+ids; id++ {
					if err := e.Upsert(id, []int64{int64(id*100 + rep), 0, 0}); err != nil {
						t.Errorf("upsert %d: %v", id, err)
						return
					}
				}
			}
		}(g * ids)
	}
	wg.Wait()
	close(done)
	scrapers.Wait()
	if err := e.CheckSync(); err != nil {
		t.Fatal(err)
	}
	if got := e.Size(); got != writers*ids {
		t.Fatalf("size %d, want %d", got, writers*ids)
	}
	// Each write lands on both snapshots of every shard. The first upsert
	// of an id is an add; every later one is an update, which counts its
	// constituent add too (§5.1.2).
	snap := reg.Snapshot()
	wantAdds := uint64(writers * ids * reps * 2 * shards)
	wantUpdates := uint64(writers * ids * (reps - 1) * 2 * shards)
	if got := snapCounter(t, snap, "thanos_engine_table_adds_total"); got != wantAdds {
		t.Errorf("table_adds_total = %d, want %d", got, wantAdds)
	}
	if got := snapCounter(t, snap, "thanos_engine_table_updates_total"); got != wantUpdates {
		t.Errorf("table_updates_total = %d, want %d", got, wantUpdates)
	}
}

// TestEngineDecideBatchZeroAlloc pins the steady-state allocation contract:
// once the engine is warm, a full batched decision — partitioning, ring
// hand-off, per-packet policy execution on every shard, write-back — must
// not touch the heap, matching the PR 1 ExecInto contract under concurrency.
func TestEngineDecideBatchZeroAlloc(t *testing.T) {
	e := newTestEngine(t, 4, testPolicySrc)
	fillRandom(t, e, 64, 17)

	pkts := make([]Packet, 256)
	for i := range pkts {
		pkts[i] = Packet{Key: uint64(i) * 0x9E3779B97F4A7C15, Out: i % 2}
	}
	e.DecideBatch(pkts) // warm up ring scratch and index buffers

	allocs := testing.AllocsPerRun(100, func() {
		e.DecideBatch(pkts)
	})
	if allocs != 0 {
		t.Fatalf("steady-state DecideBatch allocates %.1f times per batch, want 0", allocs)
	}
}

// TestEngineWriteThenReadZeroAlloc interleaves table writes with batches —
// the realistic probe-plus-traffic steady state. The decision path must stay
// at zero allocations; the write path is allowed its one closure capture per
// operation (apply takes a func), nothing more, which also pins the SMBM
// spare-pool reuse through the engine's double-buffered replay.
func TestEngineWriteThenReadZeroAlloc(t *testing.T) {
	e := newTestEngine(t, 2, minPolicySrc)
	fillRandom(t, e, 64, 23)

	pkts := make([]Packet, 64)
	for i := range pkts {
		pkts[i] = Packet{Key: uint64(i)}
	}
	vals := []int64{0, 0, 0}
	i := 0
	run := func() {
		i++
		vals[0] = int64(i)
		if err := e.Update(i%64, vals); err != nil {
			t.Fatal(err)
		}
		e.DecideBatch(pkts)
	}
	run() // warm up
	allocs := testing.AllocsPerRun(200, run)
	if allocs > 2 {
		t.Fatalf("steady-state Update+DecideBatch allocates %.1f times per cycle, want ≤ 2", allocs)
	}
}
