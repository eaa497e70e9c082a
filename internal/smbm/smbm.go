// Package smbm implements the Sorted Multidimensional Bidirectional Map
// (SMBM), the hardware data structure Thanos uses to store the resource
// table (§5.1 of the paper).
//
// An SMBM with capacity N and M metrics holds up to N resources, each with a
// unique id in [0, N) and M integer metric values. It maintains M+1
// dimensions: the resource-id dimension plus one dimension per metric. Every
// dimension is a flat sorted list (increasing order; FIFO tie-break for
// equal values), and the structure keeps bidirectional pointers between the
// id dimension and each metric dimension, so a resource's id maps to each of
// its metric entries and each metric entry maps back to its id.
//
// The representation is columnar, mirroring the hardware's per-dimension
// register files: each metric dimension is a pair of flat arrays (sorted
// values and owning ids) carved from one contiguous arena, and the
// bidirectional pointers are id-indexed arrays giving every present
// resource's position and value in each dimension in O(1). Because sorted
// positions point at ids rather than at slots of the id list, shifting one
// dimension never touches another: an insert or delete memmoves one value
// column and renumbers only the shifted suffix, instead of the full
// cross-dimension pointer fixup a slot-pointer representation needs.
//
// The functional model mirrors the hardware costs: add and delete each take
// exactly WriteCycles (2) clock cycles and the structure can be read in full
// every cycle. Writes are atomic — the visible state always corresponds to a
// completed operation, matching §5.1.4.
package smbm

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/bitvec"
	"repro/internal/hw"
	"repro/internal/telemetry"
)

// WriteCycles is the latency of an add or delete operation in clock cycles
// (§5.1.3: "The latency of both write operations is two clock cycles").
const WriteCycles = 2

// Errors returned by SMBM write operations.
var (
	ErrFull         = errors.New("smbm: table full")
	ErrDuplicateID  = errors.New("smbm: resource id already present")
	ErrNotFound     = errors.New("smbm: resource id not present")
	ErrBadID        = errors.New("smbm: resource id out of range")
	ErrMetricsArity = errors.New("smbm: wrong number of metric values")

	// ErrReplicaDivergence marks a write the authoritative table accepted
	// but a per-pipeline replica rejected: that replica no longer mirrors
	// the authority (e.g. after memory corruption or a missed update). The
	// engine quarantines the diverged replica and resyncs it from the
	// authority while the healthy replicas, which still received the write,
	// keep serving.
	ErrReplicaDivergence = errors.New("smbm: replica divergence")
)

// SMBM is a sorted multidimensional bidirectional map. It is not safe for
// concurrent use; the multi-pipeline replication scheme of §5.1.5 is modeled
// by internal/engine, which keeps one SMBM replica per shard.
type SMBM struct {
	n, m    int
	size    int
	version uint64

	// Per-metric sorted columns, both len size and carved from contiguous
	// arenas: vals[j][p] is the p-th smallest value of metric j and
	// dimIDs[j][p] the id owning it (the metric → id pointer).
	vals   [][]int64
	dimIDs [][]int32

	// Id-indexed pointer columns, valid while an id is present: the id →
	// metric pointer pos[id*m+j] gives id's position in dimension j, and
	// valByID[id*m+j] caches its value there for O(1) reads.
	pos     []int32
	valByID []int64

	members *bitvec.Vector // maintained incrementally by Add/Delete
	clock   hw.Clock
	tel     *telemetry.TableStats // nil unless AttachTelemetry was called

	// UpdateBatch scratch, sized lazily on first use.
	batchOrd  []int32
	ordTmp    []int32
	mergeVals []int64
	mergeIDs  []int32
	stamp     []uint32
	stampGen  uint32
}

// AttachTelemetry wires op counters and the size gauge into this table
// (§5.1 observability: add/delete/update counts, hot-path reads, live
// size). Pass nil to detach. Reads is incremented on the Value fast path,
// so the handles must come from a telemetry.Registry — their increments
// are single atomic adds and keep the read path allocation- and lock-free.
func (s *SMBM) AttachTelemetry(t *telemetry.TableStats) {
	s.tel = t
	if t != nil {
		t.Size.Set(int64(s.size))
	}
}

// New returns an empty SMBM with capacity n resources and m metric
// dimensions. It panics if n <= 0 or m < 0.
func New(n, m int) *SMBM {
	if n <= 0 {
		panic("smbm: capacity must be positive")
	}
	if m < 0 {
		panic("smbm: metric count must be non-negative")
	}
	if n > math.MaxInt32 {
		panic("smbm: capacity exceeds id width")
	}
	s := &SMBM{n: n, m: m, members: bitvec.New(n)}
	if m > 0 {
		// One arena per column kind; each dimension's slice is carved at a
		// stride rounded to 8 entries so dimensions start on separate cache
		// lines and a full-column sweep walks memory sequentially.
		stride := (n + 7) &^ 7
		valArena := make([]int64, stride*m)
		idArena := make([]int32, stride*m)
		s.vals = make([][]int64, m)
		s.dimIDs = make([][]int32, m)
		for j := 0; j < m; j++ {
			s.vals[j] = valArena[j*stride : j*stride : j*stride+n]
			s.dimIDs[j] = idArena[j*stride : j*stride : j*stride+n]
		}
		s.pos = make([]int32, n*m)
		s.valByID = make([]int64, n*m)
	}
	return s
}

// Capacity returns N, the maximum number of resources (and the width of bit
// vectors that index this table).
func (s *SMBM) Capacity() int { return s.n }

// NumMetrics returns M, the number of metric dimensions.
func (s *SMBM) NumMetrics() int { return s.m }

// Size returns the number of resources currently stored.
func (s *SMBM) Size() int { return s.size }

// Cycles returns the cumulative clock cycles consumed by write operations.
func (s *SMBM) Cycles() uint64 { return s.clock.Cycles() }

// Version returns a counter that increments on every successful mutation.
// Derived read-side state (such as a UFPU's cached predicate satisfying
// set) is revalidated by comparing versions instead of subscribing to
// writes.
func (s *SMBM) Version() uint64 { return s.version }

// upperBound returns the first index in the sorted slice a whose value is
// strictly greater than v — the FIFO-tie-break insertion point (§5.1.2: a
// new or updated value goes after all existing equal values).
func upperBound(a []int64, v int64) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Add inserts a new resource with the given id and metric values, keeping
// every dimension sorted and all bidirectional pointers consistent. It
// consumes exactly WriteCycles cycles on success. The paper's two-phase
// implementation (§5.1.2) — cycle 1: parallel search of all lists for
// insertion points; cycle 2: parallel shift-and-write — maps onto one
// binary search plus one suffix memmove per dimension; only the shifted
// suffix is renumbered.
func (s *SMBM) Add(id int, metrics []int64) error {
	if id < 0 || id >= s.n {
		return fmt.Errorf("%w: %d not in [0,%d)", ErrBadID, id, s.n)
	}
	if len(metrics) != s.m {
		return fmt.Errorf("%w: got %d, want %d", ErrMetricsArity, len(metrics), s.m)
	}
	if s.size >= s.n {
		return ErrFull
	}
	if s.members.Get(id) {
		return fmt.Errorf("%w: %d", ErrDuplicateID, id)
	}

	for j := 0; j < s.m; j++ {
		v := metrics[j]
		col := s.vals[j]
		p := upperBound(col, v)
		col = col[: s.size+1 : cap(col)]
		copy(col[p+1:], col[p:])
		col[p] = v
		s.vals[j] = col

		idsj := s.dimIDs[j][: s.size+1 : cap(s.dimIDs[j])]
		copy(idsj[p+1:], idsj[p:])
		idsj[p] = int32(id)
		s.dimIDs[j] = idsj
		for q := p + 1; q <= s.size; q++ {
			s.pos[int(idsj[q])*s.m+j] = int32(q)
		}
		s.pos[id*s.m+j] = int32(p)
		s.valByID[id*s.m+j] = v
	}
	s.size++
	s.members.Set(id)
	s.version++

	s.clock.Tick(WriteCycles)
	if t := s.tel; t != nil {
		t.Adds.Inc()
		t.Size.Set(int64(s.size))
	}
	s.assertConsistent("Add")
	return nil
}

// Delete removes the resource with the given id. It consumes exactly
// WriteCycles cycles on success.
func (s *SMBM) Delete(id int) error {
	if id < 0 || id >= s.n || !s.members.Get(id) {
		return fmt.Errorf("%w: %d", ErrNotFound, id)
	}

	for j := 0; j < s.m; j++ {
		p := int(s.pos[id*s.m+j])
		col := s.vals[j]
		copy(col[p:], col[p+1:])
		s.vals[j] = col[:s.size-1]

		idsj := s.dimIDs[j]
		copy(idsj[p:], idsj[p+1:])
		idsj = idsj[:s.size-1]
		s.dimIDs[j] = idsj
		for q := p; q < len(idsj); q++ {
			s.pos[int(idsj[q])*s.m+j] = int32(q)
		}
	}
	s.size--
	s.members.Clear(id)
	s.version++

	s.clock.Tick(WriteCycles)
	if t := s.tel; t != nil {
		t.Deletes.Inc()
		t.Size.Set(int64(s.size))
	}
	s.assertConsistent("Delete")
	return nil
}

// Update replaces the metric values of an existing resource. Per §5.1.2 it
// is a delete followed by an add, consuming 2×WriteCycles — but because the
// entry leaves and re-enters every dimension in the same pass, each
// dimension performs one displacement-bounded rotate: only the entries
// between the old and new sorted positions move, so an update that barely
// changes a value (the steady-state probe pattern) costs O(log n) search
// and a near-empty move instead of two full shifts.
func (s *SMBM) Update(id int, metrics []int64) error {
	if len(metrics) != s.m {
		return fmt.Errorf("%w: got %d, want %d", ErrMetricsArity, len(metrics), s.m)
	}
	if id < 0 || id >= s.n || !s.members.Get(id) {
		return fmt.Errorf("%w: %d", ErrNotFound, id)
	}

	for j := 0; j < s.m; j++ {
		v := metrics[j]
		col := s.vals[j]
		idsj := s.dimIDs[j]
		p := int(s.pos[id*s.m+j])
		// FIFO tie-break: the updated entry re-enters after every equal
		// value, so the target is the first strictly-greater position.
		q := upperBound(col, v)
		var newp int
		switch {
		case q > p+1:
			// Entry moves right: (p, q) shifts left one to close the gap.
			copy(col[p:q-1], col[p+1:q])
			copy(idsj[p:q-1], idsj[p+1:q])
			for t := p; t < q-1; t++ {
				s.pos[int(idsj[t])*s.m+j] = int32(t)
			}
			newp = q - 1
		case q < p:
			// Entry moves left: [q, p) shifts right one to open the slot.
			copy(col[q+1:p+1], col[q:p])
			copy(idsj[q+1:p+1], idsj[q:p])
			for t := q + 1; t <= p; t++ {
				s.pos[int(idsj[t])*s.m+j] = int32(t)
			}
			newp = q
		default:
			// q == p or q == p+1: the new value sorts where the old one was.
			newp = p
		}
		col[newp] = v
		idsj[newp] = int32(id)
		s.pos[id*s.m+j] = int32(newp)
		s.valByID[id*s.m+j] = v
	}
	s.version++

	// Cost model: the constituent delete+add pair of cycles and op counts,
	// plus the logical update count.
	s.clock.Tick(2 * WriteCycles)
	if t := s.tel; t != nil {
		t.Deletes.Inc()
		t.Adds.Inc()
		t.Updates.Inc()
		t.Size.Set(int64(s.size))
	}
	s.assertConsistent("Update")
	return nil
}

// UpdateBatch replaces the metric values of len(ids) existing resources in
// one sweep per dimension, equivalent to calling Update(ids[b], metrics[b])
// in order b = 0, 1, ... but with the shift work amortized: each dimension
// stably sorts the k new values (O(k log k)) and merges them with the
// surviving entries in a single O(n) pass, so a churn burst costs
// O(m·(n + k log k)) instead of the O(m·k·n) of k separate worst-case
// updates. FIFO tie-break is preserved exactly: re-entering values land
// after all equal surviving values, ordered among themselves by batch
// position. The batch is validated before any mutation; on error the table
// is unchanged. It consumes k × 2×WriteCycles cycles on success.
func (s *SMBM) UpdateBatch(ids []int, metrics [][]int64) error {
	k := len(ids)
	if len(metrics) != k {
		return fmt.Errorf("%w: %d metric rows for %d ids", ErrMetricsArity, len(metrics), k)
	}
	if s.stamp == nil {
		s.stamp = make([]uint32, s.n)
	}
	s.stampGen++
	if s.stampGen == 0 {
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.stampGen = 1
	}
	for b, id := range ids {
		if id < 0 || id >= s.n || !s.members.Get(id) {
			return fmt.Errorf("%w: %d", ErrNotFound, id)
		}
		if s.stamp[id] == s.stampGen {
			return fmt.Errorf("%w: %d repeated in batch", ErrDuplicateID, id)
		}
		s.stamp[id] = s.stampGen
		if len(metrics[b]) != s.m {
			return fmt.Errorf("%w: row %d has %d, want %d", ErrMetricsArity, b, len(metrics[b]), s.m)
		}
	}
	if k == 0 || s.m == 0 {
		if k > 0 {
			s.finishBatch(k)
		}
		return nil
	}

	if cap(s.mergeVals) < s.n {
		s.mergeVals = make([]int64, s.n)
		s.mergeIDs = make([]int32, s.n)
	}
	if cap(s.batchOrd) < k {
		s.batchOrd = make([]int32, k)
		s.ordTmp = make([]int32, k)
	}

	for j := 0; j < s.m; j++ {
		// Stable order of the incoming values: ascending, batch order on
		// ties, so the merge below reads them like a sorted run.
		ord := s.batchOrd[:k]
		for b := range ord {
			ord[b] = int32(b)
		}
		stableSortOrd(ord, s.ordTmp[:k], metrics, j)

		// One pass: surviving entries keep their relative order; a batch
		// value is emitted only once every survivor ≤ it has been (FIFO).
		col, idsj := s.vals[j], s.dimIDs[j]
		mv, mi := s.mergeVals[:0], s.mergeIDs[:0]
		bi := 0
		for p := 0; p < s.size; p++ {
			id := idsj[p]
			if s.stamp[id] == s.stampGen {
				continue // updated entry: re-enters from the batch run
			}
			v := col[p]
			for bi < k && metrics[ord[bi]][j] < v {
				b := ord[bi]
				mv = append(mv, metrics[b][j])
				mi = append(mi, int32(ids[b]))
				bi++
			}
			mv = append(mv, v)
			mi = append(mi, id)
		}
		for ; bi < k; bi++ {
			b := ord[bi]
			mv = append(mv, metrics[b][j])
			mi = append(mi, int32(ids[b]))
		}

		copy(col[:s.size], mv)
		copy(idsj[:s.size], mi)
		for p := 0; p < s.size; p++ {
			s.pos[int(idsj[p])*s.m+j] = int32(p)
		}
		for b, id := range ids {
			s.valByID[id*s.m+j] = metrics[b][j]
		}
	}
	s.finishBatch(k)
	return nil
}

// stableSortOrd stably sorts the batch indices in ord ascending by their
// dimension-j metric value, preserving batch order on ties (the FIFO
// contract). Bottom-up merge sort through the caller-provided tmp scratch:
// O(k log k) comparisons and zero allocations, unlike sort.SliceStable whose
// reflection-based swapper heap-allocates per call.
func stableSortOrd(ord, tmp []int32, metrics [][]int64, j int) {
	n := len(ord)
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo+width < n; lo += 2 * width {
			mid := lo + width
			hi := mid + width
			if hi > n {
				hi = n
			}
			x, y, o := lo, mid, lo
			for x < mid && y < hi {
				// Strict < keeps the left run (earlier batch order) first
				// on equal values.
				if metrics[ord[y]][j] < metrics[ord[x]][j] {
					tmp[o] = ord[y]
					y++
				} else {
					tmp[o] = ord[x]
					x++
				}
				o++
			}
			copy(tmp[o:], ord[x:mid])
			copy(tmp[o+(mid-x):hi], ord[y:hi])
			copy(ord[lo:hi], tmp[lo:hi])
		}
	}
}

func (s *SMBM) finishBatch(k int) {
	s.version++
	s.clock.Tick(uint64(k) * 2 * WriteCycles)
	if t := s.tel; t != nil {
		t.Deletes.Add(uint64(k))
		t.Adds.Add(uint64(k))
		t.Updates.Add(uint64(k))
		t.Size.Set(int64(s.size))
	}
	s.assertConsistent("UpdateBatch")
}

// Upsert adds the resource if absent or updates it if present.
func (s *SMBM) Upsert(id int, metrics []int64) error {
	if s.Contains(id) {
		return s.Update(id, metrics)
	}
	return s.Add(id, metrics)
}

// Contains reports whether a resource with the given id is present.
func (s *SMBM) Contains(id int) bool {
	return id >= 0 && id < s.n && s.members.Get(id)
}

// Metrics returns a copy of the metric values for the given id, or ok=false
// if absent.
func (s *SMBM) Metrics(id int) (vals []int64, ok bool) {
	if !s.Contains(id) {
		return nil, false
	}
	vals = make([]int64, s.m)
	copy(vals, s.valByID[id*s.m:id*s.m+s.m])
	return vals, true
}

// Value returns the value of metric dim for the given id, or ok=false if
// the id is absent. It panics if dim is out of range.
func (s *SMBM) Value(id, dim int) (val int64, ok bool) {
	s.checkDim(dim)
	if t := s.tel; t != nil {
		t.Reads.Inc()
	}
	if !s.Contains(id) {
		return 0, false
	}
	return s.valByID[id*s.m+dim], true
}

// PosInDim returns the sorted position of the given id within metric
// dimension dim, or -1 if the id is absent — the id → metric pointer of
// §5.1.1, resolved in O(1). It panics if dim is out of range.
func (s *SMBM) PosInDim(id, dim int) int {
	s.checkDim(dim)
	if !s.Contains(id) {
		return -1
	}
	return int(s.pos[id*s.m+dim])
}

// Members returns a bit vector of width Capacity() with a 1 for each
// resource id currently present — the encoding of the full table that feeds
// the filter pipeline. The result is a fresh copy the caller may mutate;
// allocation-free readers use MembersView.
func (s *SMBM) Members() *bitvec.Vector {
	return s.members.Clone()
}

// MembersView returns the table's internal membership vector, maintained
// incrementally by Add and Delete. The caller must treat it as read-only;
// it changes in place on every table write. It exists so the per-packet
// filter datapath can mask inputs against membership without allocating.
func (s *SMBM) MembersView() *bitvec.Vector {
	return s.members
}

// Dim provides read access to one sorted metric dimension, the view a UFPU
// copies into its temp_list in its first clock cycle (§5.2.1). Positions run
// 0..Len()-1 in sorted (increasing) order.
type Dim struct {
	s   *SMBM
	dim int
}

// Dim returns a view of metric dimension dim. It panics if dim is out of
// range [0, NumMetrics()).
func (s *SMBM) Dim(dim int) Dim {
	s.checkDim(dim)
	return Dim{s: s, dim: dim}
}

// Len returns the number of entries in the dimension (== Size()).
func (d Dim) Len() int { return d.s.size }

// Value returns the metric value at sorted position pos.
func (d Dim) Value(pos int) int64 { return d.s.vals[d.dim][pos] }

// ID returns the resource id owning the entry at sorted position pos,
// resolved through the reverse (metric → id) pointer.
func (d Dim) ID(pos int) int {
	return int(d.s.dimIDs[d.dim][pos])
}

// IDColumn returns the dimension's id column — entry p is ID(p) — as a
// zero-copy view of length Len(), for readers that walk many sorted
// positions, such as the UFPU min/max encoder. The caller must treat it as
// read-only; its contents are valid until the next table write.
func (d Dim) IDColumn() []int32 { return d.s.dimIDs[d.dim] }

// IDsSorted returns all present resource ids in increasing order of this
// dimension's metric value (FIFO tie-break preserved).
func (d Dim) IDsSorted() []int {
	out := make([]int, d.Len())
	for p := range out {
		out[p] = int(d.s.dimIDs[d.dim][p])
	}
	return out
}

// CheckInvariants verifies every structural invariant of the SMBM:
// dimensions sorted, pointer bidirectionality, consistent sizes, unique ids.
// It returns a descriptive error on the first violation. Intended for tests
// and fuzzing.
func (s *SMBM) CheckInvariants() error {
	if s.size < 0 || s.size > s.n {
		return fmt.Errorf("size %d out of range [0,%d]", s.size, s.n)
	}
	if s.members.Count() != s.size {
		return fmt.Errorf("membership vector has %d bits set, want size %d", s.members.Count(), s.size)
	}
	for j := 0; j < s.m; j++ {
		col, idsj := s.vals[j], s.dimIDs[j]
		if len(col) != s.size || len(idsj) != s.size {
			return fmt.Errorf("metric %d has %d values and %d ids, want size %d", j, len(col), len(idsj), s.size)
		}
		for p := 1; p < s.size; p++ {
			if col[p-1] > col[p] {
				return fmt.Errorf("metric %d not sorted at %d", j, p)
			}
		}
		for p := 0; p < s.size; p++ {
			id := int(idsj[p])
			if id < 0 || id >= s.n {
				return fmt.Errorf("metric %d pos %d: id %d out of range", j, p, id)
			}
			if !s.members.Get(id) {
				return fmt.Errorf("metric %d pos %d: id %d not a member", j, p, id)
			}
			if got := int(s.pos[id*s.m+j]); got != p {
				return fmt.Errorf("pointer mismatch: metric %d pos %d -> id %d -> metric pos %d", j, p, id, got)
			}
			if s.valByID[id*s.m+j] != col[p] {
				return fmt.Errorf("value cache mismatch: metric %d pos %d id %d: %d != %d",
					j, p, id, s.valByID[id*s.m+j], col[p])
			}
		}
	}
	return nil
}

func (s *SMBM) checkDim(dim int) {
	if dim < 0 || dim >= s.m {
		panic(fmt.Sprintf("smbm: dimension %d out of range [0,%d)", dim, s.m))
	}
}
