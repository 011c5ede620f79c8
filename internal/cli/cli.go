// Package cli holds what the zatel commands (zatel, sweep, simrt, heatmap,
// zateld) share: the flag groups at least two of them declare, each command
// passing its own defaults, and one start-up and exit path covering the
// logger, profiles, artifact store, signal context and span tracer.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"zatel/internal/core"
	"zatel/internal/obs"
	"zatel/internal/sampling"
	"zatel/internal/scene"
	"zatel/internal/store"
)

// Frame is the -scene/-config/-res/-spp group.
type Frame struct {
	Scene, Config string
	Res, SPP      int
}

// FrameFlags registers the frame group on fs with def's values as defaults.
// A command without a -scene or -config flag passes "" for it.
func FrameFlags(fs *flag.FlagSet, def Frame) *Frame {
	f := def
	if def.Scene != "" {
		fs.StringVar(&f.Scene, "scene", def.Scene, "scene name ("+strings.Join(scene.Names(), ", ")+")")
	}
	if def.Config != "" {
		fs.StringVar(&f.Config, "config", def.Config, "GPU configuration: mobile or rtx2060")
	}
	fs.IntVar(&f.Res, "res", def.Res, "square frame resolution")
	fs.IntVar(&f.SPP, "spp", def.SPP, "samples per pixel")
	return &f
}

// Sampling is the pixel-selection group: the strategy and the replicated
// strategies' interval and adaptive-sizing knobs.
type Sampling struct {
	dist     string
	TargetCI float64
	Options  core.SamplingOptions
}

// SamplingFlags registers -dist, -target-ci, -replicates, -confidence and
// -max-rounds on fs.
func SamplingFlags(fs *flag.FlagSet) *Sampling {
	s := &Sampling{}
	fs.StringVar(&s.dist, "dist", "uniform", "pixel-selection strategy: uniform, lintmp, exptmp, stratified or rankedset (the last two add confidence intervals)")
	fs.Float64Var(&s.TargetCI, "target-ci", 0, "adaptive sampling: relative CI half-width target, e.g. 0.05 for ±5% (requires stratified or rankedset; 0 = one round)")
	fs.IntVar(&s.Options.Replicates, "replicates", 0, "replicate sub-draws per round for stratified/rankedset (0 = default 5)")
	fs.Float64Var(&s.Options.Confidence, "confidence", 0, "confidence level for intervals: 0.90, 0.95 or 0.99 (0 = 0.95)")
	fs.IntVar(&s.Options.MaxRounds, "max-rounds", 0, "adaptive re-draw round cap with -target-ci (0 = default 4)")
	return s
}

// Dist resolves -dist.
func (s *Sampling) Dist() (sampling.Distribution, error) {
	return sampling.ParseDistribution(strings.ToLower(s.dist))
}

// FaultFlags registers the fault-tolerance group (-attempts, -retry-backoff,
// -job-timeout, -quorum) and the injection group (-inject-*) on fs; the
// returned value holds the parsed settings.
func FaultFlags(fs *flag.FlagSet) *core.FaultTolerance {
	ft := &core.FaultTolerance{}
	fs.IntVar(&ft.Attempts, "attempts", 1, "max attempts per group instance (retries on failure)")
	fs.DurationVar(&ft.Backoff, "retry-backoff", 0, "base backoff between attempts (doubles, seeded jitter)")
	fs.DurationVar(&ft.Timeout, "job-timeout", 0, "per-attempt deadline for a group instance (0 = none)")
	fs.IntVar(&ft.Quorum, "quorum", 0, "surviving groups needed for a degraded prediction (0 = ceil(K/2), <0 = all)")
	fs.Float64Var(&ft.Inject.ErrorRate, "inject-errors", 0, "fault injection: per-attempt error probability in [0,1]")
	fs.Float64Var(&ft.Inject.PanicRate, "inject-panics", 0, "fault injection: per-attempt panic probability in [0,1]")
	fs.Float64Var(&ft.Inject.StragglerRate, "inject-straggle", 0, "fault injection: per-attempt straggler probability in [0,1]")
	fs.DurationVar(&ft.Inject.StragglerMean, "inject-straggle-mean", 50*time.Millisecond, "fault injection: mean straggler delay")
	fs.Uint64Var(&ft.Inject.Seed, "inject-seed", 1, "fault injection: decision seed")
	return ft
}

// Command is one command's start-up and exit path. New registers
// -log-level; StoreFlags and ProfileFlags register the optional groups, and
// Start acts on whichever were registered.
type Command struct {
	name string
	fs   *flag.FlagSet
	// JSONLogs selects slog's JSON handler (zateld's -log-format json).
	JSONLogs bool
	// Tracer is the -trace span recorder, nil without -trace. Its methods
	// are nil-safe, so callers may set metadata unconditionally.
	Tracer *obs.Tracer

	logLevel                          string
	storeSize, storeDir, diskSize     *string
	traceFile, cpuProfile, memProfile *string
	disk                              *store.Disk

	ctx          context.Context
	stopSignals  context.CancelFunc
	stopProfiles func()
}

// New registers -log-level on fs for the command called name (the prefix of
// its error lines).
func New(fs *flag.FlagSet, name string) *Command {
	c := &Command{name: name, fs: fs, stopProfiles: func() {}, stopSignals: func() {}}
	fs.StringVar(&c.logLevel, "log-level", "info", "log verbosity: debug, info, warn or error")
	return c
}

// StoreFlags registers the artifact store group: -store-size with the
// given default, -store-dir and -disk-size. Start applies them to
// store.Default(), which every pipeline artifact goes through: the memory
// budget, and with -store-dir a disk tier, so workload traces, quantized
// heatmaps, references and predictions outlive the process.
func (c *Command) StoreFlags(defSize string) *string {
	c.storeSize = c.fs.String("store-size", defSize, "artifact store byte budget, e.g. 256MiB (0 = unbounded)")
	c.storeDir = c.fs.String("store-dir", "", "directory for the persistent artifact tier (empty = memory-only)")
	c.diskSize = c.fs.String("disk-size", "2GiB", "disk tier byte budget (0 = unbounded)")
	return c.storeSize
}

// ProfileFlags registers -trace, -cpuprofile and -memprofile.
func (c *Command) ProfileFlags() {
	c.traceFile = c.fs.String("trace", "", "write a Chrome trace_event JSON of the run to this file (open in chrome://tracing or Perfetto)")
	c.cpuProfile = c.fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	c.memProfile = c.fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
}

// Start runs after flag parsing: it installs the logger, starts the
// profiles, sets up the artifact store and returns a context that SIGINT or
// SIGTERM cancels, carrying the tracer when -trace is set. A failure ends
// the process through Finish.
func (c *Command) Start() context.Context {
	if _, err := obs.SetupLogger(os.Stderr, c.logLevel, c.JSONLogs); err != nil {
		c.Finish(err)
	}
	if c.cpuProfile != nil {
		stop, err := obs.StartProfiles(*c.cpuProfile, *c.memProfile)
		if err != nil {
			c.Finish(err)
		}
		c.stopProfiles = stop
	}
	if c.storeSize != nil {
		if err := c.openStore(); err != nil {
			c.Finish(err)
		}
	}
	c.ctx, c.stopSignals = signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if c.traceFile != nil && *c.traceFile != "" {
		c.Tracer = obs.NewTracer()
		c.Tracer.SetMeta("cmd", c.name)
		c.ctx = obs.WithTracer(c.ctx, c.Tracer)
	}
	return c.ctx
}

// openStore applies the store group to store.Default(). The disk tier
// survives restarts: artifacts built before a deploy, a crash or the last
// run are integrity-verified and served warm. A failing or full disk
// degrades the tier to memory-only instead of stalling, so enabling it is
// always safe.
func (c *Command) openStore() error {
	budget, err := store.ParseSize(*c.storeSize)
	if err != nil {
		return err
	}
	store.Default().SetMaxBytes(budget)
	if *c.storeDir == "" {
		return nil
	}
	diskBudget, err := store.ParseSize(*c.diskSize)
	if err != nil {
		return err
	}
	if c.disk, err = store.OpenDisk(store.DiskConfig{Dir: *c.storeDir, MaxBytes: diskBudget}); err != nil {
		return fmt.Errorf("opening -store-dir: %w", err)
	}
	store.Default().AttachDisk(c.disk)
	dc := c.disk.Counters()
	slog.Info("disk tier open", "dir", *c.storeDir, "budget", *c.diskSize,
		"entries", dc.Entries, "bytes", dc.Bytes,
		"orphans_removed", dc.ScanOrphans, "quarantined", dc.Quarantined)
	return nil
}

// Finish ends the run. It writes the trace and the profiles and drains the
// disk tier's write-behind queue first, so every exit path leaves them,
// then returns when err is nil, exits 130 with
// "<name>: interrupted" when a signal cancelled the run, and exits 1 with
// the error otherwise. A trace that cannot be written also exits 1.
func (c *Command) Finish(err error) {
	interrupted := c.ctx != nil && c.ctx.Err() != nil || errors.Is(err, context.Canceled)
	c.stopSignals() // cancels c.ctx
	code := 0
	if werr := c.writeTrace(); werr != nil {
		fmt.Fprintf(os.Stderr, "%s: writing trace: %v\n", c.name, werr)
		code = 1
	}
	c.stopProfiles()
	if c.disk != nil {
		if cerr := c.disk.Close(); cerr != nil {
			slog.Error("disk tier close failed", "err", cerr)
		}
		st := store.Default().Stats()
		slog.Info("artifact store", "hits", st.Mem.Hits, "disk_hits", st.Mem.DiskHits,
			"builds", st.Mem.Builds, "disk_writes", st.Disk.Writes, "disk_entries", st.Disk.Entries)
		store.Default().AttachDisk(nil)
		c.disk = nil
	}
	switch {
	case err == nil:
	case interrupted:
		fmt.Fprintf(os.Stderr, "%s: interrupted\n", c.name)
		code = 130
	default:
		fmt.Fprintf(os.Stderr, "%s: %v\n", c.name, err)
		code = 1
	}
	if code != 0 {
		os.Exit(code)
	}
}

// writeTrace exports the tracer's spans as Chrome trace_event JSON.
func (c *Command) writeTrace() error {
	if c.Tracer == nil {
		return nil
	}
	f, err := os.Create(*c.traceFile)
	if err != nil {
		return err
	}
	if err := c.Tracer.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	slog.Info("trace written", "file", *c.traceFile, "spans", len(c.Tracer.Snapshot()))
	return nil
}
