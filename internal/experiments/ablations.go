package experiments

import (
	"fmt"
	"io"

	"zatel/internal/analytic"
	"zatel/internal/config"
	"zatel/internal/core"
	"zatel/internal/metrics"
	"zatel/internal/rt"
)

// AblationCell is one measured value. Err is the failure that left it
// unmeasured ("" on success), Degraded the groups its predictions lost.
type AblationCell struct {
	Label    string
	Value    float64
	Err      string
	Degraded int
}

// AblationRow sets a design choice against its alternative on one measure;
// Verb formats both values.
type AblationRow struct {
	Name, Measure, Verb string
	Choice, Alt         AblationCell
}

// AblationsResult holds the Mobile SoC ablations: GTO against round-robin
// scheduling and a 64- against an 8-entry RT MSHR (full-simulation
// cycles), the reference's shared L2 against groups traced in full on split
// L2s (Section III-G), and Zatel's cycles+IPC MAE against a GCoM-style
// interval model's (Section IV-B).
type AblationsResult struct {
	Settings Settings
	Rows     []AblationRow
	Pool     PoolStats
	Faults   FaultTally
}

// Ablations runs the four rows. The scheduler and MSHR variants are full
// simulations, so they are references, warmed like every other; the
// predictions then share the pool.
func Ablations(s Settings) (*AblationsResult, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	soc := config.MobileSoC()
	rr, mshr8 := soc, soc
	rr.Scheduler = config.RoundRobin
	mshr8.RTMSHRSize = 8
	split := s.baseOptions(soc, "PARK")
	split.FixedFraction = 1 // isolate the split L2: no sampling at all
	points := []core.Options{split, s.baseOptions(soc, "PARK"),
		s.baseOptions(soc, "BUNNY"), s.baseOptions(soc, "SPNZA")}
	variants := []core.Options{s.baseOptions(rr, "PARK"), s.baseOptions(soc, "BATH"), s.baseOptions(mshr8, "BATH")}
	refs, err := s.warm(append(variants, points[1:]...))
	if err != nil {
		return nil, err
	}
	// warm pinned every reference, so reading one cannot fail.
	ref := func(o core.Options, m metrics.Metric) float64 {
		r, _ := refs.get(s.context(), o)
		return r.rep.Value(m)
	}
	outs, pool, faults := s.runGrid(points, refs, func(i int) string {
		return fmt.Sprintf("ablations %s fraction=%v", points[i].Scene, points[i].FixedFraction)
	})
	an := AblationCell{Label: "analytic"}
	for _, o := range points[1:] {
		wl, err := rt.CachedWorkloadContext(s.context(), o.Scene, o.Width, o.Height, o.SPP)
		var p analytic.Prediction
		if err == nil {
			p, err = analytic.Predict(o.Config, wl.Traces)
		}
		if err != nil {
			an = AblationCell{Label: an.Label, Err: err.Error()}
			break
		}
		an.Value += cyclesIPCErr(metrics.AbsErr(p.Cycles, ref(o, metrics.SimCycles)),
			metrics.AbsErr(p.IPC, ref(o, metrics.IPC))) / float64(len(points)-1)
	}
	return &AblationsResult{Settings: s, Pool: pool, Faults: faults, Rows: []AblationRow{
		{"Scheduler", "PARK full-sim cycles", "%.0f",
			AblationCell{Label: "GTO", Value: ref(split, metrics.SimCycles)},
			AblationCell{Label: "RR", Value: ref(variants[0], metrics.SimCycles)}},
		{"RT MSHR", "BATH full-sim cycles", "%.0f",
			AblationCell{Label: "64 entries", Value: ref(variants[1], metrics.SimCycles)},
			AblationCell{Label: "8 entries", Value: ref(variants[2], metrics.SimCycles)}},
		{"L2 split bias", "PARK L2 miss rate", "%.3f",
			AblationCell{Label: "shared", Value: ref(split, metrics.L2MissRate)},
			predCell("split", outs[:1], func(o outcome) float64 { return o.res.Predicted[metrics.L2MissRate] })},
		{"Analytic baseline", "PARK/BUNNY/SPNZA cycles+IPC MAE", "%.1f%%",
			predCell("Zatel", outs[1:], func(o outcome) float64 {
				errs := o.res.Errors(o.ref)
				return cyclesIPCErr(errs[metrics.SimCycles], errs[metrics.IPC])
			}), an},
	}}, nil
}

// cyclesIPCErr is the mean of a cycles and an IPC error, in percent.
func cyclesIPCErr(cycles, ipc float64) float64 { return 100 * (cycles + ipc) / 2 }

// predCell averages value over the outcomes; any failed outcome fails the
// cell.
func predCell(label string, outs []outcome, value func(outcome) float64) AblationCell {
	c := AblationCell{Label: label}
	for _, o := range outs {
		if o.err != nil {
			return AblationCell{Label: label, Err: o.err.Error()}
		}
		c.Degraded += o.degraded()
		c.Value += value(o) / float64(len(outs))
	}
	return c
}

// Render prints one line per ablation: the measure under the paper's
// choice, then under the alternative.
func (r *AblationsResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Ablations — MobileSoC (%dx%d, %d spp)\n", r.Settings.Width, r.Settings.Height, r.Settings.SPP)
	hr(w, 96)
	fmt.Fprintf(w, "%-19s%-37s%20s%20s\n", "Ablation", "Measure", "Choice", "Alternative")
	cell := func(verb string, c AblationCell) string {
		return c.Label + " " + faultCell(c.Err != "", c.Degraded, fmt.Sprintf(verb, c.Value))
	}
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-19s%-37s%20s%20s\n", row.Name, row.Measure, cell(row.Verb, row.Choice), cell(row.Verb, row.Alt))
	}
	r.Pool.Render(w)
	r.Faults.Render(w)
	fmt.Fprintln(w, "(paper: GCoM-style analytical models reach 26.7% MAE on GPGPU work and worse on ray tracing, Sec. IV-B;")
	fmt.Fprintln(w, " groups simulated without a shared L2 overestimate its miss rate, Sec. III-G)")
}
