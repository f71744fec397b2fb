package netsim

// Conservative-lookahead synchronization for the fleet engine.
//
// The classic problem of parallel discrete-event simulation is that a
// shard cannot run ahead of its neighbors: an event it has not seen yet
// might be on its way. The conservative solution exploits the physics of
// the fabric: a cross-shard packet must traverse a cross-shard link, and
// the slowest thing a link can do is deliver instantly — so a message
// generated at time τ arrives no earlier than τ + L, where L is the
// minimum delay over all links whose endpoints live in different shards.
//
// The coordinator therefore repeats three steps:
//
//  1. horizon h = the earliest queued event across all shards;
//  2. every shard drains its own heap up to the window end h + L in
//     parallel — any cross-shard message generated inside the window
//     arrives at ≥ h + L, i.e. outside it, so no shard can miss one;
//  3. barrier: outboxes are merged into the destination heaps.
//
// Merging after the barrier is insertion-order-independent because the
// heaps order by the strict total key (time, packet ID); that, plus
// per-packet RNG/fault streams, is what keeps the run byte-identical at
// any shard and worker count.

import (
	"math"
	"sync/atomic"
)

// fleetWindow is one drain command to the worker pool.
type fleetWindow struct {
	wend  float64 // exclusive window end
	bound float64 // inclusive RunUntil bound
}

// fleetPool is a persistent worker pool. Workers claim shards through an
// atomic cursor, so a pool smaller than the shard count load-balances
// and a single window costs two channel hops per worker, not per shard.
type fleetPool struct {
	f    *Fleet
	cmd  chan fleetWindow
	done chan int64
	next atomic.Int32
}

func newFleetPool(f *Fleet) *fleetPool {
	p := &fleetPool{
		f:    f,
		cmd:  make(chan fleetWindow),
		done: make(chan int64),
	}
	for i := 0; i < f.workers; i++ {
		go p.work()
	}
	return p
}

func (p *fleetPool) work() {
	for w := range p.cmd {
		var n int64
		for {
			s := int(p.next.Add(1)) - 1
			if s >= len(p.f.shards) {
				break
			}
			n += p.f.drainShard(p.f.shards[s], w.wend, w.bound)
		}
		p.done <- n
	}
}

// Close stops the worker pool. The fleet remains queryable; further
// drains fall back to the sequential path.
func (f *Fleet) Close() {
	if f.pool != nil {
		close(f.pool.cmd)
		f.pool = nil
	}
	f.workers = 1
}

// drainShard processes sh's events with at < wend and at ≤ bound, in
// (time, packet ID) order. Only this call's goroutine touches the shard;
// cross-shard output goes to outboxes.
func (f *Fleet) drainShard(sh *fleetShard, wend, bound float64) int64 {
	var n int64
	for len(sh.heap) > 0 {
		top := sh.heap[0]
		if top.at >= wend || top.at > bound {
			break
		}
		sh.pop()
		f.process(sh, top)
		sh.lastAt = top.at
		n++
	}
	sh.events += n
	return n
}

// drainWindow runs one window across all shards and returns the event
// count. With one worker (or one shard) it drains sequentially on the
// caller's goroutine — zero synchronization, which is what makes the
// single-shard fleet the cheap way to run a small fabric; the
// multi-worker path costs two channel hops per worker per window.
func (f *Fleet) drainWindow(wend, bound float64) int64 {
	if f.workers <= 1 || len(f.shards) == 1 {
		var n int64
		for _, sh := range f.shards {
			n += f.drainShard(sh, wend, bound)
		}
		return n
	}
	if f.pool == nil {
		f.pool = newFleetPool(f)
	}
	f.pool.next.Store(0)
	for i := 0; i < f.workers; i++ {
		f.pool.cmd <- fleetWindow{wend: wend, bound: bound}
	}
	var n int64
	for i := 0; i < f.workers; i++ {
		n += <-f.pool.done
	}
	return n
}

// merge empties every outbox into its destination heap. Single-threaded,
// after the barrier: the workers are quiescent, and heap order makes the
// insertion sequence irrelevant.
func (f *Fleet) merge() {
	for _, src := range f.shards {
		for d, box := range src.out {
			if len(box) == 0 {
				continue
			}
			dst := f.shards[d]
			for _, m := range box {
				dst.push(m)
			}
			src.out[d] = box[:0]
		}
	}
}

// horizon returns the earliest queued event time across shards (+Inf
// when idle).
func (f *Fleet) horizon() float64 {
	h := math.Inf(1)
	for _, sh := range f.shards {
		if len(sh.heap) > 0 && sh.heap[0].at < h {
			h = sh.heap[0].at
		}
	}
	return h
}

// runWindows advances the fleet to bound (inclusive) and returns the
// number of events processed.
func (f *Fleet) runWindows(bound float64) int {
	var total int64
	windows := 0
	for {
		h := f.horizon()
		if h > bound || math.IsInf(h, 1) {
			break
		}
		wend := h + f.lookahead
		total += f.drainWindow(wend, bound)
		f.merge()
		windows++
		t := math.Min(wend, bound)
		if math.IsInf(t, 1) {
			// Unbounded window (single-shard fleet, Run with no bound):
			// the heaps drained completely, so the frontier is the newest
			// event actually processed, keeping Now() finite and useful
			// for scheduling follow-on injections.
			t = f.now
			for _, sh := range f.shards {
				if sh.lastAt > t {
					t = sh.lastAt
				}
			}
		}
		if t > f.now {
			f.now = t
		}
	}
	f.observe(total, windows)
	return int(total)
}

// RunUntil processes events up to and including virtual time t, leaving
// later events queued, and advances the frontier to t.
func (f *Fleet) RunUntil(t float64) int {
	n := f.runWindows(t)
	if f.now < t {
		f.now = t
	}
	return n
}

// Run drains every queued event and returns the count. The frontier ends
// at the last window boundary.
func (f *Fleet) Run() int {
	return f.runWindows(math.Inf(1))
}

// observe flushes per-shard stat deltas into the registry in one batch
// per drain call rather than per event — the counters are atomic, and
// thousands of tables ticking per window must not each hit one —
// including the per-shard occupancy gauges.
func (f *Fleet) observe(events int64, windows int) {
	if f.reg == nil || (events == 0 && windows == 0) {
		return
	}
	var pending int64
	for _, sh := range f.shards {
		f.tm.hits.Add(sh.hits)
		f.tm.misses.Add(sh.misses)
		f.tm.packetIns.Add(sh.packetIns)
		f.tm.drops.Add(sh.drops)
		f.tm.crossings.Add(sh.crossings)
		sh.hits, sh.misses, sh.packetIns, sh.drops, sh.crossings, sh.delivered = 0, 0, 0, 0, 0, 0
		pending += int64(len(sh.heap))
		if sh.occ != nil {
			var occ int64
			for _, sw := range sh.switches {
				if t := f.tables[sw]; t != nil {
					occ += int64(t.Occupancy())
				}
			}
			sh.occ.Set(occ)
		}
	}
	f.tm.events.Add(events)
	f.tm.windows.Add(int64(windows))
	f.tm.pending.Set(pending)
	f.tm.clock.Set(int64(f.now * 1e6))
}

// observeRTT records one delivered echo RTT. The histogram's buckets are
// atomic and addition is commutative, so worker goroutines may call this
// concurrently without breaking shard-count invariance; it fires once
// per delivered packet, not per event.
func (f *Fleet) observeRTT(rtt float64) {
	if f.tm.rtt != nil {
		f.tm.rtt.Observe(rtt)
	}
}
