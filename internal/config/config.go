// Package config describes simulated GPU hardware configurations (Table II
// of the paper) and implements Zatel's configuration downscaling: dividing
// the independent components (SMs) and the proportionally-divisible shared
// components (memory partitions, and with them L2 slices and DRAM
// bandwidth) by the scaling factor K = gcd(#SM, #MemPartitions).
package config

import (
	"fmt"
	"strings"

	"zatel/internal/store"
)

// SchedulerKind selects the SM warp scheduling policy.
type SchedulerKind uint8

const (
	// GTO is greedy-then-oldest: keep issuing the current warp until it
	// stalls, then switch to the oldest ready warp (Table II).
	GTO SchedulerKind = iota
	// RoundRobin rotates through ready warps; provided for ablations.
	RoundRobin
)

// String implements fmt.Stringer.
func (k SchedulerKind) String() string {
	if k == GTO {
		return "gto"
	}
	return "rr"
}

// Config is a complete simulated-GPU description. All latencies are in core
// clock cycles; the DRAM clock is converted into per-core-cycle bandwidth by
// the timing model.
type Config struct {
	Name string

	// Core organisation.
	NumSMs         int
	MaxWarpsPerSM  int
	WarpSize       int
	RegistersPerSM int
	IssuePerCycle  int
	Scheduler      SchedulerKind

	// RT accelerator (per SM).
	RTUnitsPerSM int
	RTMaxWarps   int
	RTMSHRSize   int
	// RTBoxCycles and RTTriCycles are the intersection pipeline latencies.
	RTBoxCycles int
	RTTriCycles int
	// RTRaysPerCycle bounds how many rays one RT unit advances per cycle.
	RTRaysPerCycle int

	// L1 data cache (per SM).
	L1DBytes   int
	L1DAssoc   int // 0 = fully associative
	L1DLatency int
	L1DMSHRs   int
	LineBytes  int

	// L2 cache: TotalL2Bytes is split evenly across memory partitions.
	NumMemPartitions int
	TotalL2Bytes     int
	L2Assoc          int
	L2Latency        int
	L2MSHRs          int

	// Interconnect.
	NoCLatency int

	// DRAM (per partition/channel).
	CoreClockMHz int
	MemClockMHz  int
	// DRAMBusBytes is the channel transfer width in bytes per memory-clock
	// edge (DDR: two edges per clock).
	DRAMBusBytes   int
	DRAMRowBytes   int
	DRAMRowMissLat int
	DRAMQueueDepth int
}

// MobileSoC returns the mobile System-on-Chip configuration of Table II.
func MobileSoC() Config {
	c := baseline()
	c.Name = "MobileSoC"
	c.NumSMs = 8
	c.NumMemPartitions = 4
	c.RegistersPerSM = 32768
	return c
}

// RTX2060 returns the NVIDIA Turing RTX 2060 configuration of Table II.
func RTX2060() Config {
	c := baseline()
	c.Name = "RTX2060"
	c.NumSMs = 30
	c.NumMemPartitions = 12
	c.RegistersPerSM = 65536
	return c
}

// ByName resolves the Table II configuration names accepted across the CLIs
// and the HTTP API; the empty name selects the Mobile SoC.
func ByName(name string) (Config, error) {
	switch strings.ToLower(name) {
	case "", "mobile", "mobilesoc", "soc":
		return MobileSoC(), nil
	case "rtx2060", "rtx", "turing":
		return RTX2060(), nil
	default:
		return Config{}, fmt.Errorf("unknown config %q (want mobile or rtx2060)", name)
	}
}

// baseline holds the parameters shared by both Table II columns.
func baseline() Config {
	return Config{
		MaxWarpsPerSM: 32,
		WarpSize:      32,
		IssuePerCycle: 2,
		Scheduler:     GTO,

		RTUnitsPerSM:   1,
		RTMaxWarps:     4,
		RTMSHRSize:     64,
		RTBoxCycles:    4,
		RTTriCycles:    8,
		RTRaysPerCycle: 8,

		L1DBytes:   64 << 10,
		L1DAssoc:   0, // fully associative (Table II)
		L1DLatency: 20,
		L1DMSHRs:   64,
		LineBytes:  128,

		TotalL2Bytes: 3 << 20,
		L2Assoc:      16,
		L2Latency:    160,
		L2MSHRs:      128,

		NoCLatency: 8,

		CoreClockMHz:   1365,
		MemClockMHz:    3500,
		DRAMBusBytes:   4,
		DRAMRowBytes:   2048,
		DRAMRowMissLat: 24,
		DRAMQueueDepth: 32,
	}
}

// L2BytesPerPartition returns the L2 slice size owned by each memory
// partition.
func (c Config) L2BytesPerPartition() int {
	return c.TotalL2Bytes / c.NumMemPartitions
}

// DRAMBytesPerCoreCycle returns the peak per-partition DRAM bandwidth
// expressed in bytes per core clock cycle (DDR transfers two bus widths per
// memory clock).
func (c Config) DRAMBytesPerCoreCycle() float64 {
	return float64(c.MemClockMHz) * 2 * float64(c.DRAMBusBytes) / float64(c.CoreClockMHz)
}

// Validate checks that the configuration is simulable.
func (c Config) Validate() error {
	pos := func(field string, v int) error {
		if v <= 0 {
			return fmt.Errorf("config %s: %s must be positive, got %d", c.Name, field, v)
		}
		return nil
	}
	checks := []struct {
		field string
		v     int
	}{
		{"NumSMs", c.NumSMs},
		{"MaxWarpsPerSM", c.MaxWarpsPerSM},
		{"WarpSize", c.WarpSize},
		{"IssuePerCycle", c.IssuePerCycle},
		{"RTUnitsPerSM", c.RTUnitsPerSM},
		{"RTMaxWarps", c.RTMaxWarps},
		{"RTMSHRSize", c.RTMSHRSize},
		{"RTBoxCycles", c.RTBoxCycles},
		{"RTTriCycles", c.RTTriCycles},
		{"RTRaysPerCycle", c.RTRaysPerCycle},
		{"L1DBytes", c.L1DBytes},
		{"L1DLatency", c.L1DLatency},
		{"L1DMSHRs", c.L1DMSHRs},
		{"LineBytes", c.LineBytes},
		{"NumMemPartitions", c.NumMemPartitions},
		{"TotalL2Bytes", c.TotalL2Bytes},
		{"L2Assoc", c.L2Assoc},
		{"L2Latency", c.L2Latency},
		{"L2MSHRs", c.L2MSHRs},
		{"NoCLatency", c.NoCLatency},
		{"CoreClockMHz", c.CoreClockMHz},
		{"MemClockMHz", c.MemClockMHz},
		{"DRAMBusBytes", c.DRAMBusBytes},
		{"DRAMRowBytes", c.DRAMRowBytes},
		{"DRAMQueueDepth", c.DRAMQueueDepth},
	}
	for _, ch := range checks {
		if err := pos(ch.field, ch.v); err != nil {
			return err
		}
	}
	if c.L1DAssoc < 0 {
		return fmt.Errorf("config %s: negative L1DAssoc", c.Name)
	}
	if c.L1DBytes%c.LineBytes != 0 {
		return fmt.Errorf("config %s: L1DBytes %d not a multiple of line size %d",
			c.Name, c.L1DBytes, c.LineBytes)
	}
	if c.TotalL2Bytes%c.NumMemPartitions != 0 {
		return fmt.Errorf("config %s: L2 %dB does not divide across %d partitions",
			c.Name, c.TotalL2Bytes, c.NumMemPartitions)
	}
	if c.DRAMRowMissLat < 0 {
		return fmt.Errorf("config %s: negative DRAMRowMissLat", c.Name)
	}
	return nil
}

// KeyTo appends every simulation-relevant field to an artifact-store key in
// declaration order. Name is included: it tags derived configs ("RTX2060/6")
// and costs nothing, while all the numeric fields are what actually
// determine simulator output. Adding a Config field means adding it here —
// the golden digest test in internal/core pins the encoding.
func (c Config) KeyTo(k *store.Key) *store.Key {
	k.Str("cfg", c.Name)
	k.Int("sms", c.NumSMs).Int("warps", c.MaxWarpsPerSM).Int("wsz", c.WarpSize)
	k.Int("regs", c.RegistersPerSM).Int("issue", c.IssuePerCycle).Int("sched", int(c.Scheduler))
	k.Int("rtu", c.RTUnitsPerSM).Int("rtw", c.RTMaxWarps).Int("rtmshr", c.RTMSHRSize)
	k.Int("rtbox", c.RTBoxCycles).Int("rttri", c.RTTriCycles).Int("rtrays", c.RTRaysPerCycle)
	k.Int("l1b", c.L1DBytes).Int("l1a", c.L1DAssoc).Int("l1lat", c.L1DLatency)
	k.Int("l1mshr", c.L1DMSHRs).Int("line", c.LineBytes)
	k.Int("parts", c.NumMemPartitions).Int("l2b", c.TotalL2Bytes).Int("l2a", c.L2Assoc)
	k.Int("l2lat", c.L2Latency).Int("l2mshr", c.L2MSHRs)
	k.Int("noc", c.NoCLatency)
	k.Int("cclk", c.CoreClockMHz).Int("mclk", c.MemClockMHz)
	k.Int("bus", c.DRAMBusBytes).Int("row", c.DRAMRowBytes)
	k.Int("rowmiss", c.DRAMRowMissLat).Int("dramq", c.DRAMQueueDepth)
	return k
}

// DownscaleFactor returns Zatel's scaling factor for this configuration:
// the greatest common divisor of the SM count and the memory partition
// count (Section III-C).
func DownscaleFactor(c Config) int {
	return gcd(c.NumSMs, c.NumMemPartitions)
}

// Downscale returns the configuration divided by factor k: SMs and memory
// partitions are divided by k, which implicitly scales the L2 (each
// partition keeps its slice) and the peak DRAM bandwidth (channels scale
// with partitions). Shared per-SM resources are untouched, mirroring
// Section III-C. k must divide both component counts.
func (c Config) Downscale(k int) (Config, error) {
	if k <= 0 {
		return Config{}, fmt.Errorf("config %s: downscale factor %d must be positive", c.Name, k)
	}
	if c.NumSMs%k != 0 || c.NumMemPartitions%k != 0 {
		return Config{}, fmt.Errorf("config %s: factor %d does not divide SMs=%d partitions=%d",
			c.Name, k, c.NumSMs, c.NumMemPartitions)
	}
	d := c
	d.Name = fmt.Sprintf("%s/%d", c.Name, k)
	d.NumSMs = c.NumSMs / k
	d.NumMemPartitions = c.NumMemPartitions / k
	// Keep each partition's L2 slice: total LLC shrinks proportionally.
	d.TotalL2Bytes = c.L2BytesPerPartition() * d.NumMemPartitions
	return d, nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
