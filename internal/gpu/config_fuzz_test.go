package gpu

import (
	"testing"

	"zatel/internal/config"
	"zatel/internal/rt"
)

// FuzzConfigValidate: a configuration config.Validate accepts must
// simulate. Only MobileSoC's cache geometry varies, within bounds that
// keep every input's tag arrays to a few MiB: 64–512 B lines, at most
// 512 KiB of L1 per SM, 8 MiB of L2, 16 partitions and 32 ways. The
// seeds include three geometries Validate once accepted and gpu.Run then
// rejected while building its caches.
func FuzzConfigValidate(f *testing.F) {
	soc := config.MobileSoC()
	add := func(mutate func(*config.Config)) {
		c := soc
		mutate(&c)
		f.Add(c.LineBytes, c.L1DBytes, c.L1DAssoc, c.TotalL2Bytes, c.L2Assoc, c.NumMemPartitions)
	}
	add(func(*config.Config) {})
	add(func(c *config.Config) { c.TotalL2Bytes = 4 * 1000 })
	add(func(c *config.Config) { c.L2Assoc = 5 })
	add(func(c *config.Config) { c.L1DAssoc = 5 })
	f.Fuzz(func(t *testing.T, line, l1, l1Assoc, l2, l2Assoc, parts int) {
		if line < 64 || line > 512 || l1 > 512<<10 || l2 > 8<<20 || parts > 16 ||
			l1Assoc > 32 || l2Assoc > 32 {
			t.Skip("outside the fuzzed geometry bounds")
		}
		c := soc
		c.LineBytes, c.L1DBytes, c.L1DAssoc = line, l1, l1Assoc
		c.TotalL2Bytes, c.L2Assoc, c.NumMemPartitions = l2, l2Assoc, parts
		if c.Validate() != nil {
			return
		}
		if _, err := Run(Job{Cfg: c, Traces: []rt.ThreadTrace{rt.FilteredTrace()}}); err != nil {
			t.Fatalf("Validate accepted %+v, but Run failed: %v", c, err)
		}
	})
}
