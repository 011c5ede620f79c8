package gpu

import (
	"zatel/internal/cache"
	"zatel/internal/dram"
	"zatel/internal/flatmap"
	"zatel/internal/noc"
)

// The memory hierarchy is modelled analytically: every load is assigned a
// completion cycle by walking L1 → NoC → L2 slice → DRAM channel, with
// per-component queue serialization and in-flight merge (MSHR) at each
// cache level. A resident line's tag carries the cycle its fill completes
// (cache.Line.Fill), so one tag probe tells a hit from a merge into an
// outstanding fill; a small side table (evictedFills) remembers the fills
// of lines evicted before they completed. Only the SMs and RT units are
// ticked per cycle; the memory side never is, which is what makes
// full-frame simulation tractable.

// partition is one memory partition: an L2 slice fed by the crossbar and
// backed by one DRAM channel.
type partition struct {
	l2       *cache.Cache
	l2Flight evictedFills
	// l2Done/l2Out track the slice's MSHR occupancy.
	l2Done doneQ
	l2Out  int
	// nextFree implements the slice's one-access-per-cycle port.
	nextFree uint64
	channel  *dram.Channel
}

// memSystem owns the shared memory side of the simulated GPU.
type memSystem struct {
	xbar       *noc.Crossbar
	partitions []*partition
	lineBytes  uint64
	l2Latency  uint64
	l2MSHRs    int
	l2TagLat   uint64
}

// reset restores the memory system to its post-construction state for a
// pooled rerun, keeping the caches' node arenas and the side tables'
// slots.
func (ms *memSystem) reset() {
	ms.xbar.Reset()
	for _, p := range ms.partitions {
		p.l2.Reset()
		p.l2Flight.reset()
		p.l2Done.clear()
		p.l2Out = 0
		p.nextFree = 0
		p.channel.Reset()
	}
}

// route hashes a line address to its home partition. Bits above the line
// offset interleave lines across partitions, as GPU address mappings do to
// spread BVH traversal traffic.
func (ms *memSystem) route(line uint64) (int, *partition) {
	idx := int((line / ms.lineBytes) % uint64(len(ms.partitions)))
	return idx, ms.partitions[idx]
}

// l2Load walks a load through the crossbar, the home L2 slice and — on a
// miss — the DRAM channel. It returns the cycle the data arrives back at
// SM sm. now is the cycle the request leaves the L1.
func (ms *memSystem) l2Load(sm int, line uint64, now uint64) uint64 {
	pidx, p := ms.route(line)
	arrive := ms.xbar.ToPartition(pidx, now)

	// Slice port serialization.
	svc := max(arrive, p.nextFree)
	p.nextFree = svc + 1

	// One tag probe; see evictedFills for why this is exact. The side
	// table answers only for lines evicted while in flight.
	fill, hit := p.l2.Load(line)
	if !hit {
		fill = p.l2Flight.get(line, svc)
	}
	if fill > svc {
		// Merged into an in-flight fetch (secondary miss).
		return ms.xbar.ToSM(sm, fill)
	}
	if hit {
		return ms.xbar.ToSM(sm, svc+ms.l2Latency)
	}

	// Primary miss: allocate the tag and fetch from DRAM. A full MSHR file
	// delays the fetch until the earliest outstanding fill completes.
	p.l2Out -= p.l2Done.drain(svc)
	start := svc + ms.l2TagLat
	if p.l2Out >= ms.l2MSHRs {
		m := p.l2Done.pop()
		p.l2Out--
		start = max(start, m)
	}
	done := p.channel.Read(line, int(ms.lineBytes), start)
	if victim, ok := p.l2.Install(line, done); ok {
		p.l2Flight.add(victim, svc)
	}
	p.l2Done.push(done)
	p.l2Out++
	return ms.xbar.ToSM(sm, done)
}

// l2Store forwards a write-through store to its home slice. Stores are
// fire-and-forget: they consume crossbar and slice bandwidth but nothing
// waits on them, and the slice absorbs them (no DRAM write traffic).
func (ms *memSystem) l2Store(line uint64, now uint64) {
	pidx, p := ms.route(line)
	arrive := ms.xbar.ToPartition(pidx, now)
	svc := max(arrive, p.nextFree)
	p.nextFree = svc + 1
	p.l2.Store(line)
}

// evictedFills is a cache level's record of fills that were still
// outstanding when their line was evicted: the one in-flight state the tag
// array cannot answer. A miss on such a line before its fill completes
// merges into that fill instead of fetching again.
//
// The tag plus this table give exactly the answers of one map from every
// fetched line to its latest fill, probed on every access:
//   - a resident line's latest fill is the one it was installed with, since
//     a re-install needs a primary miss and so an expired earlier fill;
//   - an evicted line's is here, unless it had completed by the eviction;
//   - an entry that has expired stays expired, because the cycle an L1 or
//     L2 slice probes at never decreases (its port serializes accesses), so
//     dropping expired entries at any time changes no answer.
//
// The table is empty most of the time; get is then a length check.
type evictedFills struct {
	m     *flatmap.Map // line -> fill cycle
	last  uint64       // the latest fill ever added: all entries expire by it
	limit int          // the length above which add sweeps expired entries
}

func newEvictedFills(mshrs int) evictedFills {
	return evictedFills{m: flatmap.New(0), limit: 8 * mshrs}
}

// get returns the fill recorded for line at cycle now, or 0 if there is
// none. The fill may have expired (be at or before now): callers compare,
// as they do a tag's fill.
func (f *evictedFills) get(line, now uint64) uint64 {
	if f.m.Len() == 0 {
		return 0
	}
	if now >= f.last {
		f.m.Clear()
		return 0
	}
	fill, _ := f.m.Get(line)
	return fill
}

// add records victim, evicted at cycle now, if its fill is outstanding.
func (f *evictedFills) add(victim cache.Line, now uint64) {
	if victim.Fill <= now {
		return
	}
	f.m.Set(victim.Addr, victim.Fill)
	f.last = max(f.last, victim.Fill)
	if f.m.Len() > f.limit {
		f.m.DeleteIf(func(_, fill uint64) bool { return fill <= now })
	}
}

func (f *evictedFills) reset() {
	f.m.Clear()
	f.last = 0
}
