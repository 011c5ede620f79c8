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
// cache level. Only the SMs and RT units are ticked per cycle; the memory
// side never is, which is what makes full-frame simulation tractable.

// partition is one memory partition: an L2 slice fed by the crossbar and
// backed by one DRAM channel.
type partition struct {
	l2       *cache.Cache
	l2Flight *flatmap.Map // line -> completion cycle
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
// pooled rerun, keeping the caches' node arenas and the flight maps'
// tables.
func (ms *memSystem) reset() {
	ms.xbar.Reset()
	for _, p := range ms.partitions {
		p.l2.Reset()
		p.l2Flight.Clear()
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

	// One flight-map probe answers both questions the walk asks: "did an
	// earlier fetch of this line already complete" (lazy cleanup) and "is
	// one still outstanding" (secondary-miss merge). Load never touches the
	// flight map, so remembering the probed value is exact.
	fd, inFlight := p.l2Flight.Get(line)
	if inFlight && fd <= svc {
		p.l2Flight.Delete(line)
		inFlight = false
	}
	hit := p.l2.Load(line)
	if inFlight {
		// Merged into an in-flight fetch (secondary miss).
		return ms.xbar.ToSM(sm, max(fd, svc))
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
	p.l2.Install(line)
	p.l2Flight.Set(line, done)
	p.l2Done.push(done)
	p.l2Out++
	if p.l2Flight.Len() > 8*ms.l2MSHRs {
		// Expired entries read as absent on access, so the sweep is purely
		// about memory; timing is unaffected by when (or whether) it runs.
		p.l2Flight.DeleteIf(func(_, v uint64) bool { return v <= svc })
	}
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
