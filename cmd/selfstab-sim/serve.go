package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"selfstab"
	"selfstab/internal/serve"
)

// runServe boots the live serving mode: a long-running world stepping in
// scaled real time behind the internal/serve HTTP API, with graceful
// drain on SIGINT/SIGTERM (the in-flight step completes; with
// -snapshot-dir a final checkpoint is written).
func runServe(args []string, out io.Writer) error {
	w := recipe{nodes: 500, seed: 1, radio: 0.1, ttl: 8}
	fs := w.flags("serve", "")
	fs.IntVar(&w.ttl, "cachettl", w.ttl, "neighbor cache TTL in steps (needed for churn and energy)")
	var (
		addr    = fs.String("addr", "127.0.0.1:8650", "HTTP listen address")
		sps     = fs.Float64("sps", 10, "simulation steps per second")
		preload = fs.String("preload", "none", "scenario preloaded before serving: none, traffic, churn or mixed")
		snapDir = fs.String("snapshot-dir", "", "directory for POST /snapshot checkpoints (empty: stream-only)")
		restore = fs.String("restore", "", "snapshot file to restore the world from instead of building one")
		drain   = fs.Bool("drain-snapshot", false, "write a final checkpoint to -snapshot-dir on shutdown")
		pprofOn = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the service address")
	)
	// Strict validation, all before any network is built or port bound.
	if err := w.parse(fs, args, out); err != nil {
		return err
	}
	if *restore != "" {
		for _, conflicting := range []string{"nodes", "seed", "range", "cachettl"} {
			if flagPassed(fs, conflicting) {
				return usageErrorf("serve: -restore rebuilds the world from the snapshot's blueprint; -%s conflicts", conflicting)
			}
		}
		if *preload != "none" {
			return usageErrorf("serve: -restore replays the snapshot's own journal; -preload conflicts")
		}
	}
	if *sps <= 0 {
		return usageErrorf("serve: -sps %v must be positive", *sps)
	}
	if err := oneOf("preload scenario", preload, preloads...); err != nil {
		return err
	}
	if *addr == "" {
		return usageErrorf("serve: -addr must not be empty")
	}
	if *drain && *snapDir == "" {
		return usageErrorf("serve: -drain-snapshot requires -snapshot-dir")
	}

	world, err := serveWorld(*restore, &w, *preload, out)
	if err != nil {
		return err
	}
	srv, err := serve.New(world, serve.Config{
		StepsPerSecond: *sps,
		SnapshotDir:    *snapDir,
		DrainSnapshot:  *drain,
		EnablePprof:    *pprofOn,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	httpSrv := newHTTPServer(srv.Handler())
	httpErr := make(chan error, 1)
	go func() {
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			httpErr <- err
		}
		close(httpErr)
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(out, "serving %d nodes at step %d on http://%s (%g steps/s)\n",
		world.N(), world.StepCount(), ln.Addr(), *sps)

	runErr := srv.Run(ctx) // blocks until signal or step error
	stop()

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		httpSrv.Close()
	}
	if err, ok := <-httpErr; ok && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		return runErr
	}
	fmt.Fprintf(out, "drained at step %d\n", world.StepCount())
	return nil
}

// readHeaderTimeout bounds how long a connection may take to send its
// request header, and idleTimeout how long a keep-alive connection may
// wait for its next request, so a client that opens connections and
// stalls cannot hold them open.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer is the serve subcommand's HTTP server. It sets no
// WriteTimeout: GET /events streams for as long as its subscriber stays.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// preloads are the scenarios serve's -preload and trace's -scenario name.
var preloads = []string{"none", "traffic", "churn", "mixed"}

// serveWorld builds (or restores) and prepares the served world.
func serveWorld(restore string, w *recipe, preload string, out io.Writer) (*selfstab.Network, error) {
	if restore != "" {
		f, err := os.Open(restore)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		defer f.Close()
		world, err := selfstab.ReadSnapshot(f)
		if err != nil {
			return nil, fmt.Errorf("serve: restore %s: %w", restore, err)
		}
		fmt.Fprintf(out, "restored %s\n", restore)
		return world, nil
	}
	world, err := w.build()
	if err != nil {
		return nil, err
	}
	if preload == "traffic" || preload == "mixed" {
		ids := world.IDs()
		if err := world.AttachTraffic(selfstab.TrafficConfig{
			Flows: []selfstab.Flow{
				selfstab.CBRFlow(ids[0], ids[len(ids)-1], 0.5),
				selfstab.HotspotFlow(ids[len(ids)/2], min(10, w.nodes-1), 0.2),
			},
		}); err != nil {
			return nil, err
		}
	}
	if preload == "churn" || preload == "mixed" {
		if err := world.AttachChurn(selfstab.ChurnConfig{
			ArrivalRate:   0.1,
			DepartureRate: 0.05,
			CrashRate:     0.05,
			SleepRate:     0.05,
		}); err != nil {
			return nil, err
		}
	}
	return world, nil
}
