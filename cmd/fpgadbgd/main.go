// Command fpgadbgd is the debugging-campaign daemon: a long-running HTTP
// server that schedules concurrent detect → localize → correct campaigns
// over a bounded worker pool and a content-addressed artifact cache, so a
// fleet of clients debugging the same designs shares synthesis, placement
// and compiled-simulator work.
//
// Usage:
//
//	fpgadbgd -addr :8080 -workers 8 -cache-mb 256
//
// API (JSON; see internal/service):
//
//	POST /campaigns               {"design":"c880","fault_seed":3}
//	GET  /campaigns               list
//	GET  /campaigns/{id}          status + result
//	GET  /campaigns/{id}/events   NDJSON progress stream
//	GET  /campaigns/{id}/trace    finished campaign's per-stage timing
//	POST /campaigns/{id}/cancel   cancel
//	GET  /healthz                 liveness
//	GET  /metrics                 expvar globals plus service stats and the
//	                              telemetry registry under "fpgadbgd"
//
// Observability extras: -trace-log FILE appends every finished
// campaign's StageTrace as one NDJSON line; -pprof mounts the standard
// net/http/pprof profiling handlers under /debug/pprof/.
//
// Durability: -data-dir DIR journals every campaign lifecycle
// transition to an fsynced, checksummed write-ahead log and spills each
// design's mapped golden netlist as a content-addressed blob, so a
// killed daemon restarted on the same directory restores finished
// campaigns and re-runs interrupted ones to bit-identical result
// digests.
//
// Three campaign kinds are served: "debug" (the full detect → localize →
// correct loop, optionally with the fault-dictionary localizer via
// "use_dict":true), "faultscan" (exhaustive single-fault universe scan
// on the 64-lane fault-parallel mutant engine) and "repair" (one detect
// → dictionary-localize → candidate-search-repair pass where the golden
// design is only a behavioural oracle). Campaigns that build a layout
// accept "overlay":true to pre-reserve the debug overlay (zero-CAD probe
// switching + causal-chain localizer). Submit from the shell:
//
//	curl -s -X POST localhost:8080/campaigns -d '{"design":"9sym","fault_seed":1}'
//	curl -s -X POST localhost:8080/campaigns -d '{"design":"9sym","kind":"faultscan","patterns":128}'
//	curl -s -X POST localhost:8080/campaigns -d '{"design":"9sym","kind":"repair","fault_seed":2}'
//	curl -s localhost:8080/campaigns/c000001
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // handlers on http.DefaultServeMux, mounted behind -pprof
	"os"
	"os/signal"
	"syscall"
	"time"

	"fpgadbg/internal/service"
	"fpgadbg/internal/store"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		workers    = flag.Int("workers", 0, "concurrent campaign workers (0 = GOMAXPROCS)")
		cacheMB    = flag.Int64("cache-mb", 256, "artifact cache byte budget in MiB")
		cacheEntry = flag.Int("cache-entries", 512, "artifact cache entry budget")
		traceLog   = flag.String("trace-log", "", "append finished campaigns' stage traces to this NDJSON file")
		pprofOn    = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		dataDir    = flag.String("data-dir", "", "durable store directory (journal + blob spill); empty = in-memory only")
	)
	flag.Parse()

	cfg := service.Config{
		Workers:      *workers,
		CacheBytes:   *cacheMB << 20,
		CacheEntries: *cacheEntry,
	}
	if *traceLog != "" {
		f, err := os.OpenFile(*traceLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fpgadbgd: -trace-log:", err)
			os.Exit(1)
		}
		defer f.Close()
		cfg.TraceLog = f
	}
	if *dataDir != "" {
		st, err := store.OpenDisk(*dataDir, store.DiskOptions{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "fpgadbgd: -data-dir:", err)
			os.Exit(1)
		}
		cfg.Store = st
	}
	svc, err := service.Open(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fpgadbgd:", err)
		os.Exit(1)
	}
	handler := svc.Handler()
	if *pprofOn {
		// The service mux has no /debug routes, so mounting the pprof
		// default-mux handlers on an outer mux cannot shadow the API.
		outer := http.NewServeMux()
		outer.Handle("/debug/pprof/", http.DefaultServeMux)
		outer.Handle("/", handler)
		handler = outer
	}
	server := &http.Server{
		Addr:    *addr,
		Handler: logRequests(handler),
		// No write timeout: /campaigns/{id}/events streams for a
		// campaign's lifetime. Header/read timeouts stop slow-client
		// connection pinning.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	errCh := make(chan error, 1)
	go func() {
		log.Printf("fpgadbgd: listening on %s (workers=%d, cache=%dMiB, data-dir=%q)",
			*addr, svc.Stats().Workers, *cacheMB, *dataDir)
		errCh <- server.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		log.Printf("fpgadbgd: %v — shutting down", sig)
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "fpgadbgd:", err)
			os.Exit(1)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	server.Shutdown(ctx) //nolint:errcheck // best-effort drain
	svc.Close()
	log.Printf("fpgadbgd: stopped")
}

// logRequests is a minimal access log.
func logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		log.Printf("%s %s %s", r.Method, r.URL.Path, time.Since(start).Round(time.Microsecond))
	})
}
