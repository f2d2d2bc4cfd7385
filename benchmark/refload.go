package main

import "time"

// The reference load is a fixed piece of benchmark-owned work with the
// instruction mix of this repository's hot paths — small heap nodes,
// pointer chasing, slice growth — that a plain run executes right after
// every timed job, on a collected heap. On a shared host the memory system's speed drifts by
// tens of percent over minutes and jumps within seconds (neighbours on
// the same socket); a job and the reference load next to it slow down
// together, so the ratio of the two holds still where the wall time
// does not. README.md has the measurements that led to it. It calls
// nothing from the system under test, so no change to the repository
// can move it.

type refNode struct {
	cost, dist float64
	succs      []*refNode
}

var refSink float64

const (
	refLayers = 800
	refWidth  = 50
	// refNominalS is what the reference load takes on the machine the
	// workloads were sized on (2 vCPUs of a 2.1 GHz Xeon, go1.24) when
	// its neighbours are quiet.
	refNominalS = 0.0150
)

// hostCorrected scales a measured duration by how much slower or faster
// than nominal the reference load ran next to it: seconds at the
// nominal host speed.
func hostCorrected(measuredS, refS float64) float64 {
	return measuredS * refNominalS / refS
}

// refShare is the share of the time beside it that a sample of the
// reference load takes.
const refShare = 0.1

// refSample is one reading of the host's speed beside something that
// took besideS seconds: the mean of as many reference loads as fit
// refShare of that time, at least one. The host's speed changes within
// a job, so a longer job needs a longer look. Callers collect the heap
// first: on a heap full of a job's garbage the load meets the
// collector's phase and the free spans that job happened to leave, and
// says more about the job's seed than about the host.
func refSample(besideS float64) float64 {
	n := max(1, int(refShare*besideS/refNominalS+0.5))
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += refLoad()
	}
	return sum / float64(n)
}

// refLoad builds a layered random DAG and relaxes longest paths over
// it, and returns how long that took.
func refLoad() float64 {
	t0 := time.Now()
	x := uint64(42)
	next := func() uint64 { // xorshift64: the same DAG every call
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	prev := make([]*refNode, 0, refWidth)
	cur := make([]*refNode, 0, refWidth)
	all := make([]*refNode, 0, refLayers*refWidth)
	for l := 0; l < refLayers; l++ {
		cur = cur[:0]
		for i := 0; i < refWidth; i++ {
			n := &refNode{cost: float64(next()%1000) / 1000}
			for _, p := range prev {
				if next()%10 == 0 {
					p.succs = append(p.succs, n)
				}
			}
			cur = append(cur, n)
			all = append(all, n)
		}
		prev, cur = cur, prev
	}
	best := 0.0
	for _, n := range all {
		end := n.dist + n.cost
		if end > best {
			best = end
		}
		for _, s := range n.succs {
			if end > s.dist {
				s.dist = end
			}
		}
	}
	refSink += best
	return time.Since(t0).Seconds()
}
