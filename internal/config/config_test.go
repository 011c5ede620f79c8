package config

import (
	"reflect"
	"testing"

	"zatel/internal/store"
)

func TestTableIIValues(t *testing.T) {
	soc := MobileSoC()
	if soc.NumSMs != 8 || soc.NumMemPartitions != 4 || soc.RegistersPerSM != 32768 {
		t.Errorf("MobileSoC core params wrong: %+v", soc)
	}
	rtx := RTX2060()
	if rtx.NumSMs != 30 || rtx.NumMemPartitions != 12 || rtx.RegistersPerSM != 65536 {
		t.Errorf("RTX2060 core params wrong: %+v", rtx)
	}
	for _, c := range []Config{soc, rtx} {
		if c.WarpSize != 32 || c.MaxWarpsPerSM != 32 {
			t.Errorf("%s warp params wrong", c.Name)
		}
		if c.RTUnitsPerSM != 1 || c.RTMaxWarps != 4 || c.RTMSHRSize != 64 {
			t.Errorf("%s RT unit params wrong", c.Name)
		}
		if c.L1DBytes != 64<<10 || c.L1DLatency != 20 {
			t.Errorf("%s L1D params wrong", c.Name)
		}
		if c.TotalL2Bytes != 3<<20 || c.L2Assoc != 16 || c.L2Latency != 160 {
			t.Errorf("%s L2 params wrong", c.Name)
		}
		if c.CoreClockMHz != 1365 || c.MemClockMHz != 3500 {
			t.Errorf("%s clocks wrong", c.Name)
		}
		if c.Scheduler != GTO {
			t.Errorf("%s scheduler not GTO", c.Name)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

func TestDownscaleFactorMatchesPaper(t *testing.T) {
	// Section IV-B: K=4 for the Mobile SoC (8 SMs, 4 partitions) and K=6
	// for the RTX 2060 (30 SMs, 12 partitions).
	if k := DownscaleFactor(MobileSoC()); k != 4 {
		t.Errorf("MobileSoC K = %d, want 4", k)
	}
	if k := DownscaleFactor(RTX2060()); k != 6 {
		t.Errorf("RTX2060 K = %d, want 6", k)
	}
}

func TestDownscalePaperExample(t *testing.T) {
	// Section III-C example: 80 SMs, 10 controllers -> K=10 -> 8 SMs, 1
	// partition.
	c := RTX2060()
	c.Name = "example"
	c.NumSMs = 80
	c.NumMemPartitions = 10
	c.TotalL2Bytes = 10 << 20
	if k := DownscaleFactor(c); k != 10 {
		t.Fatalf("K = %d, want 10", k)
	}
	d, err := c.Downscale(10)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumSMs != 8 || d.NumMemPartitions != 1 {
		t.Errorf("downscaled to %d SMs / %d partitions", d.NumSMs, d.NumMemPartitions)
	}
}

func TestDownscaleScalesSharedResources(t *testing.T) {
	c := RTX2060()
	d, err := c.Downscale(6)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumSMs != 5 || d.NumMemPartitions != 2 {
		t.Fatalf("downscaled shape %d/%d", d.NumSMs, d.NumMemPartitions)
	}
	// Per-partition L2 slice is preserved; the total shrinks by K.
	if d.L2BytesPerPartition() != c.L2BytesPerPartition() {
		t.Errorf("per-partition L2 changed: %d -> %d",
			c.L2BytesPerPartition(), d.L2BytesPerPartition())
	}
	if d.TotalL2Bytes*6 != c.TotalL2Bytes {
		t.Errorf("total L2 %d not 1/6 of %d", d.TotalL2Bytes, c.TotalL2Bytes)
	}
	// Per-SM resources are untouched.
	if d.MaxWarpsPerSM != c.MaxWarpsPerSM || d.L1DBytes != c.L1DBytes {
		t.Errorf("per-SM resources changed")
	}
	if err := d.Validate(); err != nil {
		t.Errorf("downscaled config invalid: %v", err)
	}
}

func TestDownscaleRejectsBadFactors(t *testing.T) {
	c := MobileSoC()
	for _, k := range []int{0, -1, 3, 16} {
		if _, err := c.Downscale(k); err == nil {
			t.Errorf("factor %d accepted for %d SMs / %d partitions",
				k, c.NumSMs, c.NumMemPartitions)
		}
	}
	// K=1 is the identity.
	d, err := c.Downscale(1)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumSMs != c.NumSMs || d.TotalL2Bytes != c.TotalL2Bytes {
		t.Errorf("K=1 changed the config")
	}
}

func TestValidateCatchesBrokenConfigs(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero SMs", func(c *Config) { c.NumSMs = 0 }},
		{"zero warp size", func(c *Config) { c.WarpSize = 0 }},
		{"L1 not line multiple", func(c *Config) { c.L1DBytes = 100 }},
		{"line not a power of two", func(c *Config) { c.LineBytes, c.L1DBytes = 96, 96*512 }},
		{"L2 indivisible", func(c *Config) { c.TotalL2Bytes = (3 << 20) + 1 }},
		{"zero partitions", func(c *Config) { c.NumMemPartitions = 0 }},
		{"negative row miss", func(c *Config) { c.DRAMRowMissLat = -1 }},
		{"zero mem clock", func(c *Config) { c.MemClockMHz = 0 }},
		{"negative L1 associativity", func(c *Config) { c.L1DAssoc = -1 }},
		// Each passed before the caches' own rule ran here, and failed
		// later inside gpu.Run.
		{"L2 slice not line multiple", func(c *Config) { c.TotalL2Bytes = 4 * 1000 }},
		{"L2 sets indivisible", func(c *Config) { c.L2Assoc = 5 }},
		{"L1 sets indivisible", func(c *Config) { c.L1DAssoc = 5 }},
	}
	for _, tc := range cases {
		c := MobileSoC()
		tc.mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestDRAMBandwidth(t *testing.T) {
	c := MobileSoC()
	got := c.DRAMBytesPerCoreCycle()
	want := 3500.0 * 2 * 4 / 1365.0
	if got < want-1e-9 || got > want+1e-9 {
		t.Errorf("DRAM bytes/core-cycle = %v, want %v", got, want)
	}
}

func TestGCD(t *testing.T) {
	cases := []struct{ a, b, want int }{
		{8, 4, 4}, {30, 12, 6}, {80, 10, 10}, {7, 13, 1}, {12, 12, 12},
	}
	for _, c := range cases {
		if got := gcd(c.a, c.b); got != c.want {
			t.Errorf("gcd(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestSchedulerString(t *testing.T) {
	if GTO.String() != "gto" || RoundRobin.String() != "rr" {
		t.Error("scheduler names wrong")
	}
}

// TestKeyToCoversEveryField: references are stored under KeyTo's digest,
// so a field KeyTo skipped would let two configs that simulate differently
// (an ablation's variant, say) share one reference.
func TestKeyToCoversEveryField(t *testing.T) {
	digest := func(c Config) store.Digest { return c.KeyTo(store.NewKey("test")).Digest() }
	base := MobileSoC()
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		c := base
		f := reflect.ValueOf(&c).Elem().Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString(f.String() + "x")
		case reflect.Int:
			f.SetInt(f.Int() + 1)
		case reflect.Uint8:
			f.SetUint(f.Uint() + 1)
		default:
			t.Fatalf("field %s: kind %s not perturbed", typ.Field(i).Name, f.Kind())
		}
		if digest(c) == digest(base) {
			t.Errorf("KeyTo ignores field %s", typ.Field(i).Name)
		}
	}
}
