package engine

import (
	"testing"

	"repro/internal/policy"
)

// The interpreter memoizes table-static steps per table version, so a
// snapshot that served a batch keeps its min/max results until its table is
// written. The epoch protocol writes the retired snapshot last (replay after
// the reader drained it); these tests check that the replay's version bump
// makes that snapshot's next execution cold, and that a policy hot-swap or
// a resync never serves a memo built for another table or program.

// memoEngine is a 2-shard engine over 64 resources whose cpu values are
// unique, tracked in cpu for the oracle.
type memoEngine struct {
	t    *testing.T
	e    *Engine
	cpu  []int64
	pkts []Packet
}

func newMemoEngine(t *testing.T) *memoEngine {
	m := &memoEngine{t: t, e: newTestEngine(t, 2, minPolicySrc), cpu: make([]int64, 64), pkts: make([]Packet, 32)}
	for id := range m.cpu {
		m.cpu[id] = int64(1000 + 7*id)
		if err := m.e.Add(id, []int64{m.cpu[id], 0, 0}); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// winner is the oracle: the id with the smallest (max=false) or largest
// (max=true) cpu. Values are unique, so there is no tie to break.
func (m *memoEngine) winner(max bool) int {
	best := -1
	for id, v := range m.cpu {
		if best < 0 || (!max && v < m.cpu[best]) || (max && v > m.cpu[best]) {
			best = id
		}
	}
	return best
}

// set writes id's cpu through the engine and the oracle.
func (m *memoEngine) set(id int, cpu int64) {
	m.t.Helper()
	if err := m.e.Update(id, []int64{cpu, 0, 0}); err != nil {
		m.t.Fatal(err)
	}
	m.cpu[id] = cpu
}

// decide runs one 32-packet batch over both shards and requires every
// packet to return want.
func (m *memoEngine) decide(round int, what string, want int) {
	m.t.Helper()
	for i := range m.pkts {
		m.pkts[i] = Packet{Key: uint64(i)}
	}
	m.e.DecideBatch(m.pkts)
	for i, p := range m.pkts {
		if !p.OK || p.ID != want {
			m.t.Fatalf("round %d (%s): packet %d (shard %d) = (%d,%v), want (%d,true)",
				round, what, i, i%2, p.ID, p.OK, want)
		}
	}
}

// TestEngineMemoColdAfterReplay alternates winner-changing Updates with
// batches for 1000 rounds. Each write lands on both snapshots of each shard,
// the retired one after it may have served warm executions, so every
// packet returns the new winner only if that replay invalidates the memo.
func TestEngineMemoColdAfterReplay(t *testing.T) {
	m := newMemoEngine(t)
	for round := 0; round < 1000; round++ {
		// Alternate a new minimum on a fresh id with raising the current
		// winner to a new maximum, so the winner moves every round.
		if round%2 == 0 {
			m.set((round*13)%64, int64(-round))
		} else {
			m.set(m.winner(false), int64(1<<20+round))
		}
		m.decide(round, "update", m.winner(false))
		m.decide(round, "update, second batch", m.winner(false))
	}
}

// TestEngineMemoAcrossSwapPolicy repeats the check across policy hot-swaps:
// min and max over cpu alternate, with a winner-changing write between
// swaps.
func TestEngineMemoAcrossSwapPolicy(t *testing.T) {
	m := newMemoEngine(t)
	srcs := []string{minPolicySrc, maxPolicySrc}
	for round := 0; round < 200; round++ {
		useMax := round%2 == 1
		if err := m.e.SwapPolicy(policy.MustParse(srcs[round%2])); err != nil {
			t.Fatal(err)
		}
		m.decide(round, "swap", m.winner(useMax))
		m.set((round*29)%64, int64(-round))
		m.decide(round, "swap, update", m.winner(useMax))
		m.set(m.winner(useMax), int64(2000+round))
		m.decide(round, "swap, second update", m.winner(useMax))
	}
}

// TestEngineMemoAcrossResync repeats the check across CorruptReplica →
// VerifyReplicas → resync. Each cycle corrupts one shard by deleting the
// current winner from both its snapshots (after they served warm
// executions), has the scrubber quarantine it, waits for the rebuild, and
// requires every packet — failover and rebuilt shard alike — to return the
// authoritative winner, before and after a further write.
func TestEngineMemoAcrossResync(t *testing.T) {
	m := newMemoEngine(t)
	for round := 0; round < 40; round++ {
		si := round % 2
		want := m.winner(false)
		m.decide(round, "before corruption", want)
		if err := m.e.CorruptReplica(si, want); err != nil {
			t.Fatal(err)
		}
		if n := m.e.VerifyReplicas(); n != 1 {
			t.Fatalf("round %d: VerifyReplicas() = %d, want 1", round, n)
		}
		m.decide(round, "quarantined", want)
		waitHealth(t, m.e, si, Healthy)
		m.decide(round, "resynced", want)
		m.set((round*17)%64, int64(-10-round))
		m.decide(round, "resynced, update", m.winner(false))
	}
	if err := m.e.CheckSync(); err != nil {
		t.Fatal(err)
	}
}
