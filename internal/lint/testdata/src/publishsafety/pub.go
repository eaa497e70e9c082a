// Package publishsafety seeds happens-before violations around the epoch
// publish: the hot path reads pol and interp from the pinned snapshot, so
// writes to those fields must precede the atomic Store that publishes the
// snapshot — and never go through the published value afterwards.
package publishsafety

import "sync/atomic"

type snapshot struct {
	table  []int
	pol    int
	interp int
	gen    int // bookkeeping; the hot path never reads it
}

type shard struct {
	active atomic.Pointer[snapshot]
	inUse  atomic.Pointer[snapshot]
}

// process pins and executes a snapshot; pol and interp become the hot-read
// field set.
//
//thanos:hotpath
func process(s *shard) int {
	st := s.active.Load()
	s.inUse.Store(st)
	v := st.pol + st.interp
	s.inUse.Store(nil)
	return v
}

// apply writes strictly before the publish — the protocol working as
// designed.
func apply(s *shard, next *snapshot) {
	next.pol = 1
	next.interp = 2
	s.active.Store(next)
}

// swapShard publishes next and then keeps mutating it: the reader may
// already be executing the published snapshot. Writes to the retired twin
// are fine — it was never the Store argument.
func swapShard(s *shard, next, retired *snapshot) {
	next.pol = 3
	s.active.Store(next)
	next.interp = 4 // want `after its epoch publish`
	retired.pol = 5
	retired.gen++
}

// Mutate is outside the allow list entirely: every snapshot field write is
// a finding, whether or not the hot path reads the field.
func Mutate(st *snapshot) {
	st.pol = 9 // want `outside the publish protocol`
	st.gen = 9 // want `assignment to snapshot.gen outside the publish/swap functions`
}
