package filter

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/smbm"
)

// orderOracle is a brute-force model of a resource table that knows nothing
// of sorted dimensions: it records each present resource's values and the
// sequence number of its last install or update. The SMBM's FIFO tie-break
// (§5.1.2) puts a re-entering value after every equal value already
// present, so a dimension's sorted order is exactly (value, stamp)
// ascending.
type orderOracle struct {
	vals  map[int][]int64
	stamp map[int]int
	seq   int
}

func newOrderOracle() *orderOracle {
	return &orderOracle{vals: map[int][]int64{}, stamp: map[int]int{}}
}

func (o *orderOracle) put(id int, vals []int64) {
	o.vals[id] = append([]int64(nil), vals...)
	o.stamp[id] = o.seq
	o.seq++
}

func (o *orderOracle) del(id int) {
	delete(o.vals, id)
	delete(o.stamp, id)
}

// sorted returns the ids of in that are present, in ascending
// (value of attr, stamp) order.
func (o *orderOracle) sorted(in *bitvec.Vector, attr int) []int {
	var ids []int
	for id := range o.vals {
		if in.Get(id) {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := ids[i], ids[j]
		if va, vb := o.vals[a][attr], o.vals[b][attr]; va != vb {
			return va < vb
		}
		return o.stamp[a] < o.stamp[b]
	})
	return ids
}

func (o *orderOracle) present() []int {
	ids := make([]int, 0, len(o.vals))
	for id := range o.vals {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// sortedScaleHarness drives one SMBM and its brute-force oracle through
// interleaved Update, UpdateBatch and delete/re-add churn at a realistic
// table size. The min/max units under test are built once and stay bound
// to the table, so sorted positions move under them between executions.
type sortedScaleHarness struct {
	t      *testing.T
	r      *rand.Rand
	n, m   int
	valMax int64
	s      *smbm.SMBM
	o      *orderOracle
}

const scaleMetrics = 2

func newSortedScaleHarness(t *testing.T, seed int64, n int, valMax int64) *sortedScaleHarness {
	h := &sortedScaleHarness{
		t: t, r: rand.New(rand.NewSource(seed)),
		n: n, m: scaleMetrics, valMax: valMax,
		s: smbm.New(n, scaleMetrics), o: newOrderOracle(),
	}
	// Leave about one id in eight absent so input bits for non-members
	// must be masked.
	for _, id := range h.r.Perm(n) {
		if h.r.Intn(8) == 0 {
			continue
		}
		h.add(id)
	}
	return h
}

func (h *sortedScaleHarness) row() []int64 {
	vals := make([]int64, h.m)
	for j := range vals {
		vals[j] = h.r.Int63n(h.valMax)
	}
	return vals
}

func (h *sortedScaleHarness) add(id int) {
	vals := h.row()
	if err := h.s.Add(id, vals); err != nil {
		h.t.Fatal(err)
	}
	h.o.put(id, vals)
}

// churn applies one round of writes: single updates, one UpdateBatch of
// distinct ids, and a few deletes each followed by a re-add elsewhere.
func (h *sortedScaleHarness) churn() {
	present := h.o.present()
	for i := 0; i < 4; i++ {
		id := present[h.r.Intn(len(present))]
		vals := h.row()
		if err := h.s.Update(id, vals); err != nil {
			h.t.Fatal(err)
		}
		h.o.put(id, vals)
	}

	k := 1 + h.r.Intn(32)
	perm := h.r.Perm(len(present))[:k]
	ids := make([]int, k)
	rows := make([][]int64, k)
	for b, pi := range perm {
		ids[b], rows[b] = present[pi], h.row()
	}
	if err := h.s.UpdateBatch(ids, rows); err != nil {
		h.t.Fatal(err)
	}
	for b, id := range ids {
		h.o.put(id, rows[b]) // batch order is the FIFO order among ties
	}

	for i := 0; i < 2; i++ {
		present = h.o.present()
		id := present[h.r.Intn(len(present))]
		if err := h.s.Delete(id); err != nil {
			h.t.Fatal(err)
		}
		h.o.del(id)
		var absent []int
		for a := 0; a < h.n; a++ {
			if _, ok := h.o.vals[a]; !ok {
				absent = append(absent, a)
			}
		}
		h.add(absent[h.r.Intn(len(absent))])
	}
}

type inputShape struct {
	name string
	in   *bitvec.Vector
}

// inputs returns the input shapes every round checks for one attribute:
// dense (in = members), sparse (at most four members plus absent ids),
// and the two adversarial inputs — exactly the c ids at the far end of the
// sorted order from the min and from the max encoder — on which the
// bounded sorted walk misses and the id-walk fallback answers.
func (h *sortedScaleHarness) inputs(attr int) []inputShape {
	shapes := []inputShape{{"dense", h.s.Members()}}

	sparse := bitvec.New(h.n)
	present := h.o.present()
	for i, c := 0, 1+h.r.Intn(4); i < c; i++ {
		sparse.Set(present[h.r.Intn(len(present))])
	}
	for a := 0; a < h.n; a++ {
		if _, ok := h.o.vals[a]; !ok && h.r.Intn(2) == 0 {
			sparse.Set(a) // non-members must be masked
		}
	}
	shapes = append(shapes, inputShape{"sparse", sparse})

	order := h.o.sorted(bitvec.Ones(h.n), attr)
	c := 1 + h.r.Intn(len(order)/2)
	farFromMin, farFromMax := bitvec.New(h.n), bitvec.New(h.n)
	for _, id := range order[len(order)-c:] {
		farFromMin.Set(id)
	}
	for _, id := range order[:c] {
		farFromMax.Set(id)
	}
	return append(shapes,
		inputShape{"adversarial-min", farFromMin},
		inputShape{"adversarial-max", farFromMax})
}

// want returns the oracle's answer for a chain of k min (or max) units:
// the first (or last) k entries of the masked sorted order.
func (h *sortedScaleHarness) want(in *bitvec.Vector, attr, k int, max bool) *bitvec.Vector {
	order := h.o.sorted(in, attr)
	if k > len(order) {
		k = len(order)
	}
	w := bitvec.New(h.n)
	if max {
		order = order[len(order)-k:]
	} else {
		order = order[:k]
	}
	for _, id := range order {
		w.Set(id)
	}
	return w
}

// scaleSizes are the table sizes the oracle tests cover: the pinned-bench
// size, the served reference shape, and a larger table.
var scaleSizes = []int{64, 1024, 4096}

// scaleValueRanges are the two value distributions: wide (ties rare) and
// heavy ties, where FIFO order decides most selections.
var scaleValueRanges = []struct {
	name string
	max  int64
}{{"wide", 1 << 20}, {"ties", 8}}

func scaleRounds(n int) int {
	if testing.Short() || n > 1024 {
		return 6
	}
	return 16
}

// TestPropertyMinMaxOrderOracleAtScale checks UMin and UMax against the
// brute-force install/update-order oracle at realistic table sizes, over
// dense, sparse and adversarial inputs, with table churn between
// executions.
func TestPropertyMinMaxOrderOracleAtScale(t *testing.T) {
	for _, n := range scaleSizes {
		for _, vr := range scaleValueRanges {
			t.Run(fmt.Sprintf("n=%d/%s", n, vr.name), func(t *testing.T) {
				h := newSortedScaleHarness(t, int64(n)+vr.max, n, vr.max)
				units := make([][2]*UFPU, h.m)
				for attr := range units {
					for i, op := range []UnaryOp{UMin, UMax} {
						u, err := NewUFPU(h.s, UFPUConfig{Op: op, Attr: attr})
						if err != nil {
							t.Fatal(err)
						}
						units[attr][i] = u
					}
				}
				out := bitvec.New(n)
				for round := 0; round < scaleRounds(n); round++ {
					h.churn()
					for attr := range units {
						for _, sh := range h.inputs(attr) {
							for i, max := range []bool{false, true} {
								units[attr][i].ExecInto(out, sh.in)
								if want := h.want(sh.in, attr, 1, max); !out.Equal(want) {
									t.Fatalf("round %d attr %d %s %s: got %v, want %v",
										round, attr, sh.name, units[attr][i].Config().Op, out.IDs(), want.IDs())
								}
							}
						}
					}
				}
			})
		}
	}
}

// TestPropertyTopKOrderOracleAtScale checks K-UFPU minK and maxK chains
// against the same oracle: a chain of K units must select exactly the
// first (last) K entries of the masked sorted order.
func TestPropertyTopKOrderOracleAtScale(t *testing.T) {
	const maxLen = 16
	for _, n := range scaleSizes {
		for _, vr := range scaleValueRanges {
			t.Run(fmt.Sprintf("n=%d/%s", n, vr.name), func(t *testing.T) {
				h := newSortedScaleHarness(t, 7*int64(n)+vr.max, n, vr.max)
				var chains [2]*KUFPU
				for i, op := range []UnaryOp{UMin, UMax} {
					k, err := NewKUFPU(h.s, maxLen, UFPUConfig{Op: op, Attr: i % h.m})
					if err != nil {
						t.Fatal(err)
					}
					chains[i] = k
				}
				out := bitvec.New(n)
				for round := 0; round < scaleRounds(n); round++ {
					h.churn()
					for i, max := range []bool{false, true} {
						attr := chains[i].Config().Attr
						for _, sh := range h.inputs(attr) {
							kv := 1 + h.r.Intn(maxLen)
							chains[i].ExecInto(out, sh.in, kv)
							if want := h.want(sh.in, attr, kv, max); !out.Equal(want) {
								t.Fatalf("round %d %s K=%d %s: got %v, want %v",
									round, sh.name, kv, chains[i].Config().Op, out.IDs(), want.IDs())
							}
						}
					}
				}
			})
		}
	}
}
