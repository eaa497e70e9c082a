package main

import (
	"encoding/binary"

	"repro/internal/sim"
)

// Input sizes. The serving workloads draw batches from a population of
// numFlowKeys flow keys; route-churn cycles through a fixed update stream;
// fattree-k8 offers numFlows flows.
const (
	numFlowKeys     = 1 << 20
	updateStreamOps = 1 << 16
	numFlows        = 4000
	fatTreeK        = 8
	mtu             = 1500
)

// resource is one table row: an id and its metric values in schema order.
type resource struct {
	ID   int
	Vals []int64
}

// flowSpec is one netsim flow offered before the run starts.
type flowSpec struct {
	Src, Dst int
	Bytes    int64
	At       sim.Time
}

// inputs is everything a run offers the system under test. It is derived
// from the workload and the seed alone; the program never sees the seed.
type inputs struct {
	Table   []resource // install order, which decides FIFO ties
	Keys    []uint64   // flow keys; batch b uses keys [b*batch, (b+1)*batch) mod len
	Updates []resource // route-churn update stream, applied writeOps at a time
	Flows   []flowSpec // fattree-k8 flow list
	NetSeed int64      // seed of the simulated network's own RNG streams
}

// rng is a splitmix64 stream. It is defined here rather than taken from
// math/rand so the inputs stay byte-identical across Go releases.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	return &rng{s: uint64(seed)*0x9E3779B97F4A7C15 ^ stream*0xD1B54A32D192ED03}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	x := r.s
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// intn returns a value in [0, n); the modulo bias is below 2^-40 for the
// ranges used here.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// Independent streams per input kind, so adding one kind never shifts
// another's values.
const (
	streamTable = iota + 1
	streamKeys
	streamUpdates
	streamFlows
	streamNet
)

// generate derives a workload's inputs from the seed.
func generate(w *workload, seed int64) *inputs {
	in := &inputs{}
	switch w.kind {
	case kindServing:
		tr := newRNG(seed, streamTable)
		in.Table = make([]resource, w.resources)
		for id := range in.Table {
			in.Table[id] = resource{ID: id, Vals: w.row(tr)}
		}
		kr := newRNG(seed, streamKeys)
		in.Keys = make([]uint64, numFlowKeys)
		for i := range in.Keys {
			in.Keys[i] = kr.next()
		}
		if w.writeRate > 0 {
			// Each writeOps-sized batch names distinct paths, as one
			// control-plane report per path would.
			ur := newRNG(seed, streamUpdates)
			in.Updates = make([]resource, 0, updateStreamOps)
			seen := make([]int, w.resources)
			for b := 1; len(in.Updates) < updateStreamOps; b++ {
				for j := 0; j < w.writeOps; j++ {
					id := ur.intn(w.resources)
					for seen[id] == b {
						id = ur.intn(w.resources)
					}
					seen[id] = b
					in.Updates = append(in.Updates, resource{ID: id, Vals: w.row(ur)})
				}
			}
		}
	case kindNetsim:
		fr := newRNG(seed, streamFlows)
		hosts := fatTreeK * fatTreeK * fatTreeK / 4
		in.Flows = make([]flowSpec, numFlows)
		at := sim.Time(0)
		for i := range in.Flows {
			src, dst := fr.intn(hosts), fr.intn(hosts)
			for dst == src {
				dst = fr.intn(hosts)
			}
			size := int64(mtu + fr.intn(63*mtu+1))
			in.Flows[i] = flowSpec{Src: src, Dst: dst, Bytes: size, At: at}
			at += sim.Time(fr.intn(10)) * sim.Microsecond
		}
		in.NetSeed = int64(newRNG(seed, streamNet).next() >> 1)
	}
	return in
}

// lbRow draws a server's cpu (%), free memory (MB) and free bandwidth
// (Mb/s) the way cmd/thanosload populates its table.
func lbRow(r *rng) []int64 {
	return []int64{int64(r.intn(100)), int64(r.intn(8192)), int64(r.intn(10000))}
}

// pathRow draws a path's util (x1000), queue (packets) and loss (x10000)
// around one shared congestion level, so the three minK sets of the
// Figure 17 policy overlap on some draws and not on others, and queue
// values collide often enough to exercise FIFO ties.
func pathRow(r *rng) []int64 {
	c := r.intn(100)
	return []int64{
		int64(10*c + r.intn(50)),
		int64(c/4 + r.intn(6)),
		int64(50*c + r.intn(500)),
	}
}

// encode is the canonical byte form of the inputs, used to prove that a
// seed fully determines them.
func (in *inputs) encode() []byte {
	var b []byte
	u := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	rows := func(rs []resource) {
		u(uint64(len(rs)))
		for _, r := range rs {
			u(uint64(r.ID))
			for _, v := range r.Vals {
				u(uint64(v))
			}
		}
	}
	rows(in.Table)
	u(uint64(len(in.Keys)))
	for _, k := range in.Keys {
		u(k)
	}
	rows(in.Updates)
	u(uint64(len(in.Flows)))
	for _, f := range in.Flows {
		u(uint64(f.Src))
		u(uint64(f.Dst))
		u(uint64(f.Bytes))
		u(uint64(f.At))
	}
	u(uint64(in.NetSeed))
	return b
}

// batchKeys returns the flow keys of batch b.
func (in *inputs) batchKeys(b, size int, dst []uint64) []uint64 {
	dst = dst[:0]
	base := b * size
	for j := 0; j < size; j++ {
		dst = append(dst, in.Keys[(base+j)%len(in.Keys)])
	}
	return dst
}
