// Command zateld is the Zatel prediction daemon: a long-lived HTTP service
// that amortises the expensive pipeline stages across requests through the
// content-addressed artifact store, coalesces concurrent identical
// requests onto one pipeline execution, bounds concurrent builds with an
// admission semaphore, and drains gracefully on SIGINT/SIGTERM.
//
// Usage:
//
//	zateld -addr :8080 -store-size 512MiB -max-concurrent 8
//	zateld -store-dir /var/cache/zatel -disk-size 4GiB   # persistent tier
//	zateld -log-format json -debug-addr localhost:6060   # JSON logs + pprof
//
//	# Two-node fleet: each node names the full peer list and itself.
//	zateld -addr :8080 -self http://10.0.0.1:8080 \
//	    -peers http://10.0.0.1:8080,http://10.0.0.2:8080 -node-name a
//	zateld -addr :8080 -self http://10.0.0.2:8080 \
//	    -peers http://10.0.0.1:8080,http://10.0.0.2:8080 -node-name b
//
//	curl -s -X POST localhost:8080/v1/predict \
//	    -d '{"scene":"PARK","config":"mobile","width":128,"height":128,"spp":2}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"strings"
	"time"

	"zatel/internal/cli"
	"zatel/internal/cluster"
	"zatel/internal/service"
	"zatel/internal/store"
)

func main() {
	app := cli.New(flag.CommandLine, "zateld")
	storeSize := app.StoreFlag("512MiB")
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		storeDir      = flag.String("store-dir", "", "directory for the persistent artifact tier (empty = memory-only)")
		diskSize      = flag.String("disk-size", "2GiB", "disk tier byte budget (0 = unbounded)")
		maxConcurrent = flag.Int("max-concurrent", 0, "max predictions building at once (0 = one per CPU core)")
		maxQueue      = flag.Int("max-queue", 0, "max builders waiting for a slot before 503 (0 = 4x max-concurrent)")
		defTimeout    = flag.Duration("default-timeout", 60*time.Second, "per-request deadline when the request names none")
		maxTimeout    = flag.Duration("max-timeout", 10*time.Minute, "hard cap on client-requested deadlines")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "how long to wait for in-flight requests on shutdown")
		parallel      = flag.Bool("parallel", true, "run each prediction's K group instances on the worker pool")
		workers       = flag.Int("workers", 0, "group-instance pool size with -parallel (0 = one per CPU core)")
		logFormat     = flag.String("log-format", "text", "log output format: text or json")
		debugAddr     = flag.String("debug-addr", "", "separate listen address for /debug/pprof/ (empty = disabled)")
		peers         = flag.String("peers", "", "comma-separated base URLs of every fleet member, self included (empty = single node)")
		selfURL       = flag.String("self", "", "this node's base URL exactly as listed in -peers (required with -peers)")
		nodeName      = flag.String("node-name", "", "display name for X-Zatel-Node and logs (default: -self URL or hostname)")
		peerTimeout   = flag.Duration("peer-timeout", 2*time.Second, "deadline for one peer artifact fetch")
	)
	flag.Parse()

	switch *logFormat {
	case "text", "json":
	default:
		app.Finish(fmt.Errorf("unknown -log-format %q (want text or json)", *logFormat))
	}
	app.JSONLogs = *logFormat == "json"

	// SIGINT/SIGTERM start the drain: health flips to 503 so load
	// balancers stop routing here, new predictions are refused, and
	// in-flight requests get drain-timeout to finish.
	ctx := app.Start()
	defer app.Finish(nil)

	// One store for everything: workload traces and quantized heatmaps land
	// in the process-wide default store anyway, so budgeting that same
	// store (Start applied -store-size) puts predictions and their inputs
	// under one LRU.
	st := store.Default()

	// The disk tier survives restarts: artifacts built before a deploy or
	// crash are integrity-verified and served warm afterwards. A failing or
	// full disk degrades the tier to memory-only instead of stalling
	// requests, so enabling it is always safe.
	var disk *store.Disk
	if *storeDir != "" {
		diskBudget, err := store.ParseSize(*diskSize)
		if err != nil {
			app.Finish(err)
		}
		disk, err = store.OpenDisk(store.DiskConfig{Dir: *storeDir, MaxBytes: diskBudget})
		if err != nil {
			app.Finish(fmt.Errorf("opening -store-dir: %w", err))
		}
		st.AttachDisk(disk)
		dc := disk.Counters()
		slog.Info("disk tier open", "dir", *storeDir, "budget", *diskSize,
			"entries", dc.Entries, "bytes", dc.Bytes,
			"orphans_removed", dc.ScanOrphans, "quarantined", dc.Quarantined)
	}

	// Cluster mode: the static peer list becomes a consistent-hash ring,
	// the store gains the peer fetch tier, and the service gains ownership
	// routing. A single node (-peers empty) skips all of it.
	var cl *cluster.Cluster
	if *peers != "" {
		if *selfURL == "" {
			app.Finish(errors.New("-peers requires -self (this node's base URL)"))
		}
		var err error
		cl, err = cluster.New(cluster.Config{
			Self:         strings.TrimRight(*selfURL, "/"),
			Name:         *nodeName,
			Peers:        splitPeers(*peers),
			FetchTimeout: *peerTimeout,
		})
		if err != nil {
			app.Finish(err)
		}
		st.AttachPeers(cl)
		slog.Info("cluster enabled", "self", cl.Self(), "name", cl.Name(),
			"peers", len(cl.Peers()), "fetch_timeout", *peerTimeout)
	}

	srv := service.New(service.Config{
		Store:          st,
		MaxConcurrent:  *maxConcurrent,
		MaxQueue:       *maxQueue,
		DefaultTimeout: *defTimeout,
		MaxTimeout:     *maxTimeout,
		Parallel:       *parallel,
		Workers:        *workers,
		Cluster:        cl,
		NodeName:       *nodeName,
	})
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// The pprof listener is separate from the service address so profiling
	// endpoints are never exposed to prediction clients; bind it to
	// localhost (e.g. -debug-addr localhost:6060) in production.
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		ds := &http.Server{Addr: *debugAddr, Handler: dmux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			slog.Info("debug listener up", "addr", *debugAddr)
			if err := ds.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				slog.Error("debug listener failed", "err", err)
			}
		}()
	}

	errCh := make(chan error, 1)
	go func() {
		slog.Info("listening", "addr", *addr, "store_budget", *storeSize,
			"slots", effectiveSlots(*maxConcurrent))
		errCh <- hs.ListenAndServe()
	}()

	select {
	case <-ctx.Done():
		slog.Info("signal received, draining", "timeout", *drainTimeout)
		srv.SetDraining(true)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			slog.Error("drain incomplete", "err", err)
			os.Exit(1)
		}
		if cl != nil {
			cl.Close()
		}
		if disk != nil {
			// Flush the write-behind queue so artifacts built moments before
			// the signal are warm after the next start.
			if err := disk.Close(); err != nil {
				slog.Error("disk tier close failed", "err", err)
			}
		}
		slog.Info("drained cleanly")
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			app.Finish(err)
		}
	}
}

// splitPeers parses the -peers list: comma-separated base URLs, blanks
// skipped, trailing slashes dropped so ring identities compare exactly.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimRight(strings.TrimSpace(p), "/")
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

// effectiveSlots reports the admission capacity for the startup log.
func effectiveSlots(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}
