package bench

// layers.go is the only file of the harness that imports zatel/internal/*.
// Every other file speaks the harness's own vocabulary (frame, predictSpec,
// values, fleet), so a refactor of a layer's API breaks this file and
// nothing else. The functions it relies on:
//
//	core      PredictContext, Options.CacheKey, Result, GroupRun
//	rt        BuildWorkload, WorkloadKey, FilteredTrace, TraceSource
//	bvh       Build, DefaultOptions
//	scene     ByName, Names
//	config    Config.Downscale
//	partition Fine
//	sampling  Budget, Select, SelectReplicates, ParseDistribution
//	gpu       Run, DrainPools
//	combine   Linear, LinearReplicates, MergeDegraded, MergeIntervals
//	metrics   All, AbsErr, MAE
//	vecmath   NewRNG, RNG.Split
//	store     New, Default, OpenDisk, EncodeFramed, DecodeFramed,
//	          Store.{GetOrBuild,SetMaxBytes,Snapshot,AttachDisk,AttachPeers},
//	          Disk.{Get,Put,Flush,Close}
//	cluster   New, Cluster.{Fetch,Owner,Close}
//	service   New, Server.Handler, ConfigByName, PredictRequest
//
// core.PredictContext is one call, and the program's own spans are off
// limits to this harness. What happens inside a prediction is therefore
// taken from two places: what core.Result reports about the execution
// itself (per-group simulation and queue time, rounds, the group reports,
// preprocessing time), and probes, which call one layer function at a time,
// each in a harness span, on the inputs the prediction had. A probe is its
// own execution; nothing here re-implements the pipeline.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"zatel/internal/bvh"
	"zatel/internal/cluster"
	"zatel/internal/combine"
	"zatel/internal/core"
	"zatel/internal/gpu"
	"zatel/internal/metrics"
	"zatel/internal/partition"
	"zatel/internal/rt"
	"zatel/internal/sampling"
	"zatel/internal/scene"
	"zatel/internal/service"
	"zatel/internal/store"
	"zatel/internal/vecmath"
)

// Pipeline knobs the harness sets on every prediction, so that the probes
// can make the same layer calls without knowing core's defaults.
const (
	chunkW, chunkH = 32, 2 // fine-grained division: warp width, minimal height
	replicates     = 5
	maxRounds      = 4
	confidence     = 0.95
	spp            = 1
)

// values holds the Table I metrics in metrics.All() order.
type values []float64

// sceneNames lists the scene library in the paper's order.
func sceneNames() []string { return scene.Names() }

// metricNames lists the Table I metrics by the names the HTTP API uses, in
// the order of values.
func metricNames() []string {
	names := make([]string, 0, len(metrics.All()))
	for _, m := range metrics.All() {
		names = append(names, m.String())
	}
	return names
}

func valuesOf(gv map[metrics.Metric]float64) values {
	out := make(values, 0, len(metrics.All()))
	for _, m := range metrics.All() {
		out = append(out, gv[m])
	}
	return out
}

// maePct is the seven-metric mean absolute error of pred against ref, in
// percent.
func maePct(pred, ref values) float64 {
	errs := make(map[metrics.Metric]float64, len(pred))
	for i, m := range metrics.All() {
		errs[m] = metrics.AbsErr(pred[i], ref[i])
	}
	return 100 * metrics.MAE(errs, metrics.All())
}

// frame is one distinct functional trace: a scene at a square resolution,
// 1 spp.
type frame struct {
	Scene string
	Res   int
}

// predictSpec is one prediction request in harness terms. Zero Percent
// selects the Eq. 1 budget; zero TargetCI a single round.
type predictSpec struct {
	frame
	Config   string // "mobile" or "rtx2060"
	Percent  float64
	Dist     string
	Seed     uint64
	TargetCI float64
	Parallel bool
}

func (sp predictSpec) options() (core.Options, error) {
	cfg, err := service.ConfigByName(sp.Config)
	if err != nil {
		return core.Options{}, err
	}
	dist, err := sampling.ParseDistribution(sp.Dist)
	if err != nil {
		return core.Options{}, err
	}
	opts := core.Options{
		Config: cfg, Scene: sp.Scene, Width: sp.Res, Height: sp.Res, SPP: spp,
		ChunkW: chunkW, ChunkH: chunkH,
		Dist: dist, FixedFraction: sp.Percent, TargetCIHalfWidth: sp.TargetCI,
		Parallel: sp.Parallel, Seed: sp.Seed,
	}
	if dist.Replicated() {
		opts.Sampling = core.SamplingOptions{Replicates: replicates, Confidence: confidence, MaxRounds: maxRounds}
	}
	return opts, nil
}

// body is the POST /v1/predict request for the spec.
func (sp predictSpec) body() ([]byte, error) {
	return json.Marshal(service.PredictRequest{
		Scene: sp.Scene, Config: sp.Config, Width: sp.Res, Height: sp.Res, SPP: spp,
		Dist: sp.Dist, Percent: sp.Percent, Seed: sp.Seed, TargetCI: sp.TargetCI,
	})
}

// groupStat is what core reports about one group's simulation.
type groupStat struct {
	Wall, Queue time.Duration
	Rounds      int
	Runs        int // gpu.Run calls: 1, or replicates x rounds

	// Exact modelled counts of the group's (last) simulator run.
	Cycles, L2Accesses, L2Misses uint64
}

// prediction is the outcome of one core.PredictContext call.
type prediction struct {
	Values values
	Wall   time.Duration // as the caller saw it
	Busy   float64       // share of Wall the process was on a processor
	// From core.Result: the slowest group (serial) or the fan-out's elapsed
	// time (parallel), and what steps 1-2 cost this call after the trace.
	SimWall, Preprocess time.Duration
	Groups              []groupStat
	CIRel               float64 // worst relative CI half-width of the merged intervals

	// result is what the probes of a traced operation take their inputs
	// from; the caller drops it once they have run, so that no prediction
	// on record pins its quantized heatmap.
	result *core.Result
}

// predict times one core.PredictContext call from the outside.
func predict(ctx context.Context, sp predictSpec) (prediction, error) {
	opts, err := sp.options()
	if err != nil {
		return prediction{}, err
	}
	var res *core.Result
	wall, busy, err := timed(func() (err error) {
		res, err = core.PredictContext(ctx, opts)
		return err
	})
	if err != nil {
		return prediction{}, err
	}
	if res.Degraded != nil {
		return prediction{}, fmt.Errorf("%s: %s", sp.Scene, res.Degraded)
	}
	p := prediction{Values: valuesOf(res.Predicted), Wall: wall, Busy: busy,
		SimWall: res.SimWallTime, Preprocess: res.PreprocessTime, result: res}
	for _, g := range res.Groups {
		runs := 1
		if g.Rounds > 0 {
			runs = g.Replicates * g.Rounds // every round draws the same replicate count
		}
		p.Groups = append(p.Groups, groupStat{Wall: g.WallTime, Queue: g.QueueTime, Rounds: g.Rounds, Runs: runs,
			Cycles: g.Report.Cycles, L2Accesses: g.Report.L2Accesses, L2Misses: g.Report.L2Misses})
	}
	if res.Intervals != nil {
		p.CIRel = res.Intervals.MaxRelHalfWidth()
	}
	return p, nil
}

// evictArtifacts returns the process to the state a fresh CLI invocation
// starts from: nothing resident in the shared artifact store, no pooled
// simulator state.
func evictArtifacts() {
	store.Default().SetMaxBytes(1)
	store.Default().SetMaxBytes(0)
	gpu.DrainPools()
}

// resident is a functional trace the harness built and holds.
type resident struct {
	frame
	wl    *rt.Workload
	built time.Duration // what rt.BuildWorkload took
}

func (r *resident) bytes() uint64 { return uint64(r.wl.SizeBytes()) }

// buildFrame traces the frame. With keep set the trace is also made
// resident in the shared artifact store under the key core looks it up by,
// so later predictions of the frame start warm and share this one copy. A
// traced run first builds the frame's BVH on its own, for bvh.build_ms
// only: rt.BuildWorkload builds the same tree where no harness span reaches.
func buildFrame(ctx context.Context, tr *tracer, parent spanID, req int, f frame, keep bool) (*resident, error) {
	s, err := scene.ByName(f.Scene)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		id := tr.start("bvh.Build", parent, req)
		_, err = bvh.Build(s, bvh.DefaultOptions())
		tr.end(id, int64(len(s.Tris)))
		if err != nil {
			return nil, err
		}
	}
	id := tr.start("rt.BuildWorkload", parent, req)
	start := now()
	wl, err := rt.BuildWorkload(s, f.Res, f.Res, spp)
	built := now() - start
	tr.end(id, int64(f.Res*f.Res))
	if err != nil {
		return nil, err
	}
	if keep {
		_, _, err := store.Default().GetOrBuild(ctx, rt.WorkloadKey(f.Scene, f.Res, f.Res, spp),
			func(context.Context) (any, int64, error) { return wl, 0, nil })
		if err != nil {
			return nil, err
		}
	}
	return &resident{frame: f, wl: wl, built: built}, nil
}

// residentFrame returns the frame's trace from the shared artifact store,
// where set-up or the last prediction of the frame left it.
func residentFrame(ctx context.Context, f frame) (*resident, error) {
	v, _, err := store.Default().GetOrBuild(ctx, rt.WorkloadKey(f.Scene, f.Res, f.Res, spp),
		func(context.Context) (any, int64, error) {
			return nil, 0, fmt.Errorf("%s %d is not resident", f.Scene, f.Res)
		})
	if err != nil {
		return nil, err
	}
	return &resident{frame: f, wl: v.(*rt.Workload)}, nil
}

// reference is one full-configuration simulation of a whole frame: the
// ground truth for mae_pct and the denominator's counterpart in
// speedup_vs_full.
type reference struct {
	Values values
	Wall   time.Duration
	// Repr is the complete metrics.Report with WallTime zeroed, for the
	// results digest.
	Repr string

	L1DAccesses, L1DMisses uint64
	L2Accesses, L2Misses   uint64
	DRAMBWUtil             float64
}

// reference runs the frame's full simulation and reports how often it had
// to be repeated for want of a processor (see timed).
func (r *resident) reference(tr *tracer, req int, cfgName string) (ref reference, repeats int, err error) {
	cfg, err := service.ConfigByName(cfgName)
	if err != nil {
		return reference{}, 0, err
	}
	for {
		id := tr.start("gpu.Run.full", noSpan, req)
		var rep metrics.Report
		wall, busy, err := timed(func() (err error) {
			rep, err = gpu.Run(gpu.Job{Cfg: cfg, Traces: r.wl.Traces})
			return err
		})
		tr.end(id, int64(len(r.wl.Traces)))
		if err != nil {
			return reference{}, repeats, err
		}
		if busy < minBusy && repeats < maxRepeats {
			repeats++
			continue
		}
		rep.WallTime = 0
		return reference{
			Values: valuesOf(rep.Values()), Wall: wall, Repr: fmt.Sprintf("%+v", rep),
			L1DAccesses: rep.L1DAccesses, L1DMisses: rep.L1DMisses,
			L2Accesses: rep.L2Accesses, L2Misses: rep.L2Misses,
			DRAMBWUtil: rep.DRAMBWUtil,
		}, repeats, nil
	}
}

// groupSource presents one group's threads to the simulator the way core
// does: selected pixels replay their trace, the rest the filtered prologue.
type groupSource struct {
	wl       *rt.Workload
	pixels   []int32
	selected map[int32]bool
}

var filteredTrace = rt.FilteredTrace()

func (g groupSource) Len() int { return len(g.pixels) }

func (g groupSource) At(i int) *rt.ThreadTrace {
	if p := g.pixels[i]; g.selected[p] {
		return &g.wl.Traces[p]
	}
	return &filteredTrace
}

// probed is what the probes of one traced prediction measured, each number
// the sum over the calls of that kind.
type probed struct {
	Build                                  time.Duration // cold workloads only
	Partition, Select, Replicates, Combine time.Duration

	// The warm gpu.Run probes: group 0's selection (every replicate of it
	// under a replicated strategy) on the downscaled configuration.
	RunWall              time.Duration
	Cycles, Instructions uint64
	Mallocs, MallocRuns  uint64

	// Realized over Requested is how much of the requested pixel budget the
	// point-estimate selections kept.
	Realized, Requested float64
}

// probeLayers makes the layer calls a prediction of sp makes between its
// trace and its result, one at a time, each in a harness span: the
// division, the selection of every group, the simulation of group 0's
// selection, and the extrapolation and merge of what the prediction's own
// groups reported. res is that prediction; it left the frame resident. cold
// adds a simulation right after a pool drain, a gpu.Run.cold span.
func probeLayers(ctx context.Context, tr *tracer, parent spanID, req int, sp predictSpec, res *core.Result, cold bool) (probed, error) {
	var out probed
	opts, err := sp.options()
	if err != nil {
		return out, err
	}
	fr, err := residentFrame(ctx, sp.frame)
	if err != nil {
		return out, err
	}
	wl := fr.wl
	cfg := opts.Config
	if res.K > 1 {
		if cfg, err = cfg.Downscale(res.K); err != nil {
			return out, err
		}
	}

	id := tr.start("partition.Fine", parent, req)
	groups, err := partition.Fine(wl.Width, wl.Height, res.K, chunkW, chunkH)
	out.Partition = tr.end(id, int64(res.K))
	if err != nil {
		return out, err
	}

	rng := vecmath.NewRNG(sp.Seed)
	var first []sampling.Selection // group 0's
	for gi := range groups {
		g := &groups[gi]
		frac := sp.Percent
		if frac == 0 {
			frac = sampling.Budget(res.Quantized, g)
		}
		var sels []sampling.Selection
		if opts.Dist.Replicated() {
			id = tr.start("sampling.SelectReplicates", parent, req)
			sels, err = sampling.SelectReplicates(res.Quantized, g, frac, opts.Dist, replicates, rng.Split(uint64(gi)))
			out.Replicates += tr.end(id, int64(len(sels)))
		} else {
			id = tr.start("sampling.Select", parent, req)
			var sel sampling.Selection
			sel, err = sampling.Select(res.Quantized, g, frac, opts.Dist, rng.Split(uint64(gi)))
			out.Select += tr.end(id, int64(len(sel.Pixels)))
			out.Requested += frac
			out.Realized += sel.Fraction
			sels = []sampling.Selection{sel}
		}
		if err != nil {
			return out, err
		}
		if gi == 0 {
			first = sels
		}
	}

	// Group 0's selections on the downscaled configuration. A cold probe
	// runs the first one twice: right after a pool drain, and again warm.
	pixels := groups[0].AllPixels()
	reps := make([]metrics.Report, len(first))
	fracs := make([]float64, len(first))
	simulate := func(name string, i int) error {
		keep := make(map[int32]bool, len(first[i].Pixels))
		for _, p := range first[i].Pixels {
			keep[p] = true
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		id := tr.start(name, parent, req)
		rep, err := gpu.Run(gpu.Job{Cfg: cfg, Source: groupSource{wl: wl, pixels: pixels, selected: keep}})
		wall := tr.end(id, int64(len(keep)))
		runtime.ReadMemStats(&after)
		if err != nil || name == "gpu.Run.cold" {
			return err
		}
		reps[i], fracs[i] = rep, first[i].Fraction
		out.RunWall += wall
		out.Cycles += rep.Cycles
		out.Instructions += rep.Instructions
		out.Mallocs += after.Mallocs - before.Mallocs
		out.MallocRuns++
		return nil
	}
	if cold {
		gpu.DrainPools()
		if err := simulate("gpu.Run.cold", 0); err != nil {
			return out, err
		}
	}
	for i := range first {
		if err := simulate("gpu.Run", i); err != nil {
			return out, err
		}
	}

	vals := make([]combine.GroupValues, len(res.Groups))
	var ivs []combine.GroupIntervals
	if opts.Dist.Replicated() {
		id = tr.start("combine.LinearReplicates", parent, req)
		_, err = combine.LinearReplicates(reps, fracs, confidence)
		out.Combine += tr.end(id, int64(len(reps)))
		if err != nil {
			return out, err
		}
	}
	id = tr.start("combine.Merge", parent, req)
	for gi, g := range res.Groups {
		if g.Intervals != nil {
			vals[gi] = g.Intervals.Means()
			ivs = append(ivs, g.Intervals)
		} else if vals[gi], err = combine.Linear(g.Report, g.Fraction); err != nil {
			break
		}
	}
	if err == nil {
		_, err = combine.MergeDegraded(vals, len(vals))
	}
	if err == nil && ivs != nil {
		_, err = combine.MergeIntervals(ivs, len(vals), confidence)
	}
	out.Combine += tr.end(id, int64(len(vals)))
	return out, err
}

// fleet is an in-process zateld fleet on real loopback listeners: per node
// a memory store with a disk tier and the peer tier attached, a cluster
// view and the HTTP service.
type fleet struct {
	nodes     []*fleetNode
	transport *http.Transport
}

type fleetNode struct {
	ring string // identity on the consistent-hash ring
	addr string // base URL of the listener
	ln   net.Listener
	st   *store.Store
	disk *store.Disk
	cl   *cluster.Cluster
	hs   *http.Server
	done chan struct{} // closed when the serve loop has returned
}

// newFleet starts n nodes with their disk tiers under dir. Ring identities
// are fixed names, not the listeners' random ports, so key ownership is the
// same on every run; the peers' HTTP client dials the names through a table.
func newFleet(dir string, n int) (*fleet, error) {
	f := &fleet{}
	dial := make(map[string]string, n)
	var rings []string
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		host := fmt.Sprintf("zatel-node-%d", i)
		dial[host+":80"] = ln.Addr().String()
		rings = append(rings, "http://"+host)
		f.nodes = append(f.nodes, &fleetNode{ring: rings[i], addr: "http://" + ln.Addr().String(), ln: ln})
	}
	dialer := &net.Dialer{}
	f.transport = &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			if real, ok := dial[addr]; ok {
				addr = real
			}
			return dialer.DialContext(ctx, network, addr)
		},
	}
	for i, node := range f.nodes {
		if err := node.start(dir, i, rings, f.transport); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

func (n *fleetNode) start(dir string, i int, rings []string, transport *http.Transport) error {
	name := fmt.Sprintf("node-%d", i)
	var err error
	n.cl, err = cluster.New(cluster.Config{
		Self: n.ring, Name: name, Peers: rings,
		FetchTimeout: 5 * time.Second,
		Probe:        cluster.ProbeConfig{Interval: -1}, // no failures to recover from here
		HTTPClient:   &http.Client{Transport: transport},
	})
	if err != nil {
		return err
	}
	n.disk, err = store.OpenDisk(store.DiskConfig{Dir: filepath.Join(dir, name)})
	if err != nil {
		return err
	}
	n.st = store.New(0)
	n.st.AttachDisk(n.disk)
	n.st.AttachPeers(n.cl)
	srv := service.New(service.Config{Store: n.st, Cluster: n.cl, NodeName: name})
	n.hs = &http.Server{Handler: srv.Handler(), ErrorLog: log.New(io.Discard, "", 0)}
	n.done = make(chan struct{})
	go func() {
		defer close(n.done)
		n.hs.Serve(n.ln) // returns once close() shuts the server down
	}()
	return nil
}

// close stops every node and waits for its serve loop to end.
func (f *fleet) close() {
	for _, n := range f.nodes {
		if n.hs != nil {
			n.hs.Close()
			<-n.done
		} else {
			n.ln.Close()
		}
		if n.cl != nil {
			n.cl.Close()
		}
		if n.disk != nil {
			n.disk.Close()
		}
	}
	if f.transport != nil {
		f.transport.CloseIdleConnections()
	}
	f.nodes = nil
}

func (f *fleet) addrs() []string {
	out := make([]string, len(f.nodes))
	for i, n := range f.nodes {
		out[i] = n.addr
	}
	return out
}

// nodeOfRing maps an X-Zatel-Owner header value back to a node index.
func (f *fleet) nodeOfRing(ring string) int {
	for i, n := range f.nodes {
		if n.ring == ring {
			return i
		}
	}
	return -1
}

func (f *fleet) flushDisks() {
	for _, n := range f.nodes {
		n.disk.Flush()
	}
}

// quarterBudgets caps every node's memory tier at a quarter of what the
// fill left resident, so the measured phases run with a working set four
// times the cache.
func (f *fleet) quarterBudgets() {
	for _, n := range f.nodes {
		n.st.SetMaxBytes(max(n.st.Snapshot().Bytes/4, 1))
	}
}

func (f *fleet) evictions() uint64 {
	var total uint64
	for _, n := range f.nodes {
		total += n.st.Snapshot().Evictions
	}
	return total
}

// probe times the store, codec, cluster and key layers directly, with no
// HTTP in the way, over the predictions the fleet already holds. It only
// records spans; serve.go turns them into metrics.
func (f *fleet) probe(ctx context.Context, tr *tracer, dir string, specs []predictSpec) error {
	absent := func(context.Context) (any, int64, error) {
		return nil, 0, errors.New("prediction absent from every tier of its owner")
	}
	type held struct {
		key   store.Digest
		owner int
		res   any
	}
	var all []held
	for i, sp := range specs {
		opts, err := sp.options()
		if err != nil {
			return err
		}
		id := tr.start("core.CacheKey", noSpan, i)
		key := opts.CacheKey()
		tr.end(id, 0)
		owner := f.nodeOfRing(f.nodes[0].cl.Owner(key))
		res, _, err := f.nodes[owner].st.GetOrBuild(ctx, key, absent)
		if err != nil {
			return fmt.Errorf("probe %s seed %d: %w", sp.Scene, sp.Seed, err)
		}
		all = append(all, held{key, owner, res})
	}

	for i, h := range all {
		id := tr.start("store.EncodeFramed", noSpan, i)
		data, _, err := store.EncodeFramed(h.res)
		tr.end(id, int64(len(data)))
		if err != nil {
			return err
		}
		id = tr.start("store.DecodeFramed", noSpan, i)
		_, _, _, err = store.DecodeFramed(data)
		tr.end(id, int64(len(data)))
		if err != nil {
			return err
		}
	}

	disk, err := store.OpenDisk(store.DiskConfig{Dir: filepath.Join(dir, "probe")})
	if err != nil {
		return err
	}
	defer disk.Close()
	for i, h := range all {
		id := tr.start("store.Disk.Put", noSpan, i)
		disk.Put(h.key, h.res)
		disk.Flush()
		tr.end(id, 0)
	}
	for i, h := range all {
		id := tr.start("store.Disk.Get", noSpan, i)
		_, _, ok := disk.Get(h.key)
		tr.end(id, 0)
		if !ok {
			return fmt.Errorf("probe: disk tier lost key %s", h.key.Short())
		}
	}

	const hits = 20000
	mem := store.New(0)
	resident := func(context.Context) (any, int64, error) { return all[0].res, 1, nil }
	if _, _, err := mem.GetOrBuild(ctx, all[0].key, resident); err != nil {
		return err
	}
	id := tr.start("store.GetOrBuild.hit", noSpan, 0)
	for i := 0; i < hits; i++ {
		if _, _, err := mem.GetOrBuild(ctx, all[0].key, absent); err != nil {
			tr.end(id, 0)
			return err
		}
	}
	tr.end(id, hits)

	for i, h := range all {
		other := f.nodes[(h.owner+1)%len(f.nodes)]
		id := tr.start("cluster.Fetch", noSpan, i)
		_, _, ok := other.cl.Fetch(ctx, h.key)
		tr.end(id, 0)
		if !ok {
			return fmt.Errorf("probe: %s could not fetch key %s from its owner", other.ring, h.key.Short())
		}
	}
	return nil
}
