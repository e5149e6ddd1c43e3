// Command dramthermd serves the DRAM thermal simulator over HTTP/JSON:
// simulation-as-a-service on top of internal/sweep, with the wire layer
// in internal/httpapi. Concurrent requests for the same run spec share
// one simulation; distinct specs run in parallel on a bounded worker
// pool. Asynchronous jobs are listable, cancellable, streamable over
// SSE, and evicted after a TTL.
//
// Usage:
//
//	dramthermd -addr :8080
//	dramthermd -addr :8080 -workers 8 -segment-dir /var/lib/dramtherm/state
//	dramthermd -job-ttl 1h -max-jobs 4096
//	dramthermd -peers http://w1:8080,http://w2:8080   # cluster coordinator
//	dramthermd -peers @/etc/dramtherm/peers            # one URL per line
//	dramthermd -addr :8080 -join http://w1:8080 -advertise http://w3:8080
//
// Every dramthermd gossips its cluster membership: it keeps a versioned
// table (id, url, incarnation, alive/suspect/dead), serves
// POST /v1/gossip, and anti-entropy syncs the table with a few random
// members every gossip interval, so workers join and leave a running
// cluster without restarting anything. A worker needs no flags at all:
// it answers whoever dials it.
//
// With -peers the node coordinates a cluster. The -peers URLs are seed
// addresses: the coordinator dials each one until a member answers
// from it, learns the rest of the cluster from the reply, and reaches
// that member at the URL it dialled — whatever address the member
// advertises. Runs are fanned out to the live members by consistent
// hashing on the canonical spec key (each worker's cache stays hot for
// its shard); a failed dispatch ejects the member, suspects it in the
// gossip table and retries the shard on the next ring member, falling
// back to local execution when every member is down. A member that
// stops answering gossip is suspected, declared dead and dropped from
// the ring even when no run is dispatched to it; a dead seed is dialled
// again until it answers, so a restarted seed worker rejoins on its
// own. The coordinator gossips once before it serves, so its ring holds
// the answering seeds from boot, and as an observer with no URL, so no
// ring ever holds it. All dispatch between nodes is batched: each
// member receives its entire shard of a sweep in one /v1/exec/batch
// request and streams per-spec outcomes back, and a single run (POST
// /v1/exec or /v1/runs on the coordinator) travels as a shard of one.
//
// A worker started with -join dials those seed addresses until a
// member answers and so enters the cluster without appearing in any
// -peers list. It is reached at its -advertise URL; that defaults to
// -addr with the hostname for a missing or wildcard host, and the
// member id to the URL minus the scheme, so flagless workers on hosts
// w1 and w2 are w1:8080 and w2:8080. See docs/ARCHITECTURE.md.
//
// Endpoints:
//
//	GET    /v1/healthz           version, uptime, run-cache statistics, peer ring, membership
//	GET    /metrics              Prometheus text exposition (cache, pool, jobs, HTTP, gossip, ring)
//	GET    /debug/pprof/         runtime profiles (opt-in via -pprof)
//	POST   /v1/gossip            anti-entropy membership exchange
//	POST   /v1/exec              synchronous single-run execution
//	POST   /v1/exec/batch        shard execution (cluster dispatch): specs in, streamed NDJSON outcomes out
//	POST   /v1/runs              async submit: {"mix":"W1","policy":"DTM-ACG"} → {"id":"run-1"}
//	GET    /v1/runs              job listing (?status=running, ?offset=, ?limit=)
//	GET    /v1/runs/{id}         job status/result (?traces=1 for temperature traces, ?specs=1 for search rounds)
//	GET    /v1/runs/{id}/events  live per-spec progress over SSE
//	DELETE /v1/runs/{id}         cancel in-flight / evict finished
//	POST   /v1/sweeps            sync grid sweep (?async=1 submits a job), e.g.
//	                             {"grid":{"mixes":["W1","W2"],"policies":["DTM-TS","DTM-BW"]},
//	                              "normalize":true}
//
// With -segment-dir the run cache and level-1 trace store are durable:
// every completed result is appended to a crash-safe segment log as it
// finishes (not on shutdown), replayed at boot, and compacted in the
// background. That log is node-local: the cluster keeps no replicas.
// Every result is a pure function of its spec's cache key, so a worker
// crash costs only its shard's warmth — the key's next ring owner
// rebuilds what it asks for, slower but never wrong.
//
// On SIGINT/SIGTERM the server shuts down gracefully: it stops
// accepting requests and cancels in-flight simulations.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"dramtherm/internal/core"
	"dramtherm/internal/httpapi"
	"dramtherm/internal/obs"
	"dramtherm/internal/sweep"
	"dramtherm/internal/sweep/remote"
	"dramtherm/internal/sweep/remote/gossip"
)

// version is reported by GET /v1/healthz.
const version = "0.10.0"

// parseSeeds expands a -peers or -join value: either a comma-separated
// list of base URLs or @path naming a file with one URL per line (blank
// lines and #-comments skipped). Seeds are addresses only: member ids
// come from the members that answer there.
func parseSeeds(arg string) ([]string, error) {
	var entries []string
	if rest, ok := strings.CutPrefix(arg, "@"); ok {
		data, err := os.ReadFile(rest)
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(string(data), "\n") {
			if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
				entries = append(entries, line)
			}
		}
	} else {
		for _, e := range strings.Split(arg, ",") {
			if e = strings.TrimSpace(e); e != "" {
				entries = append(entries, e)
			}
		}
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("no seed URLs in %q", arg)
	}
	for i, e := range entries {
		u, err := url.Parse(e)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("seed %q is not an http(s) base URL", e)
		}
		entries[i] = strings.TrimRight(e, "/")
	}
	return entries, nil
}

// advertiseURL resolves the base URL other members reach this node at:
// -advertise, else -addr with hostname (else loopback) for a missing or
// wildcard host, so nodes on different hosts get distinct default ids.
func advertiseURL(advertise, addr, hostname string) string {
	if advertise != "" {
		return strings.TrimRight(advertise, "/")
	}
	if host, port, err := net.SplitHostPort(addr); err == nil {
		if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
			if hostname == "" {
				hostname = "127.0.0.1"
			}
			return "http://" + net.JoinHostPort(hostname, port)
		}
	}
	return "http://" + addr
}

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 0, "simulation worker pool width (0 = GOMAXPROCS; with -peers, cluster capacity + GOMAXPROCS)")
		replicas = flag.Int("replicas", 0, "batch copies per application (0 = Chapter 4 default)")
		scale    = flag.Float64("instrscale", 0, "application length scale factor (0 = 1.0; small values for demos)")
		segDir   = flag.String("segment-dir", "", "durable state: append-only segment-log directory; results persist as they complete and replay on boot")
		compact  = flag.Duration("compact-interval", 10*time.Minute, "segment-log compaction period (0 disables background compaction)")
		prefixOn = flag.Bool("prefix-share", false, "prefix-state checkpointing: specs differing only in DTM policy share their warm-up prefix — one leader run records decisions and checkpoints, later policies resume from the checkpoint before their first divergent decision (results stay bit-identical to cold replay)")
		jobTTL   = flag.Duration("job-ttl", 15*time.Minute, "evict finished jobs this long after completion (0 disables eviction)")
		maxJobs  = flag.Int("max-jobs", sweep.DefaultMaxJobs, "job registry bound; submissions beyond it are rejected while all jobs run")
		peers    = flag.String("peers", "", "coordinate a cluster: comma-separated seed URLs of its workers, or @file with one per line")
		perPeer  = flag.Int("peer-conns", 4, "max concurrent requests per peer")

		join      = flag.String("join", "", "seed URLs (comma-separated, or @file) of members to join an existing cluster through, without coordinating")
		advertise = flag.String("advertise", "", "base URL other members reach this node at (default http://<addr>, the hostname standing in for a missing or wildcard host; coordinators advertise none)")
		nodeID    = flag.String("id", "", "stable member id (default derived from the advertised URL)")
		gossipInt = flag.Duration("gossip-interval", time.Second, "gossip round period")

		logFormat = flag.String("log-format", "text", "log output format: text or json")
		pprofOn   = flag.Bool("pprof", false, "serve net/http/pprof profiles under /debug/pprof/")
	)
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		log.Fatalf("-log-format: want text or json, got %q", *logFormat)
	}
	logger := slog.New(handler)
	slog.SetDefault(logger)
	fatalf := func(format string, args ...any) {
		logger.Error(fmt.Sprintf(format, args...))
		os.Exit(1)
	}

	// One registry covers every layer: the engine's cache and worker
	// pool, the HTTP middleware, the gossip node and (on a coordinator)
	// the remote backend all register here, and GET /metrics renders it.
	reg := obs.NewRegistry()
	reg.SampleFunc(obs.KindGauge, "dramtherm_build_info",
		"Build metadata; the value is always 1.", []string{"version"},
		func() []obs.Sample {
			return []obs.Sample{{LabelValues: []string{version}, Value: 1}}
		})

	cfg := core.DefaultConfig()
	if *replicas > 0 {
		cfg.Replicas = *replicas
	}
	if *scale > 0 {
		cfg.InstrScale = *scale
	}

	var peerSeeds, seeds []string
	if *peers != "" {
		var err error
		if peerSeeds, err = parseSeeds(*peers); err != nil {
			fatalf("-peers: %v", err)
		}
	}
	if *join != "" {
		var err error
		if seeds, err = parseSeeds(*join); err != nil {
			fatalf("-join: %v", err)
		}
	}
	seeds = append(seeds, peerSeeds...)
	poolWidth := *workers
	if poolWidth == 0 && len(peerSeeds) > 0 {
		// A coordinator's pool slots mostly wait on the network, not the
		// CPU: size for the cluster's capacity plus local-fallback
		// headroom instead of local cores. -workers overrides.
		poolWidth = len(peerSeeds)**perPeer + runtime.GOMAXPROCS(0)
	}
	eng := sweep.NewEngine(core.NewSystem(cfg), poolWidth)
	if *prefixOn {
		// Before Instrument, which registers the prefix metric families.
		eng.EnablePrefixSharing()
	}
	eng.Instrument(reg)

	if *segDir != "" {
		if err := eng.EnableSegmentLog(*segDir, *compact); err != nil {
			fatalf("-segment-dir: %v", err)
		}
		defer func() {
			if err := eng.Close(); err != nil {
				logger.Warn("state close", "err", err.Error())
			}
		}()
		if st, ok := eng.StateStats(); ok {
			logger.Info("state replayed", "dir", *segDir, "segments", st.Segments,
				"bytes", st.Bytes, "traces", eng.Level1Records())
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	apiCfg := httpapi.Config{JobTTL: *jobTTL, MaxJobs: *maxJobs, Version: version, Logger: logger, Metrics: reg}
	if apiCfg.JobTTL <= 0 {
		apiCfg.JobTTL = -1 // flag convention: 0 disables; Config uses <0 for that
	}

	hostname, _ := os.Hostname() // "" falls back to loopback
	self := gossip.Member{ID: *nodeID, URL: advertiseURL(*advertise, *addr, hostname)}
	if self.ID == "" {
		self.ID = remote.DeriveID(self.URL)
	}
	gcfg := gossip.Config{Self: self, Seeds: seeds, Interval: *gossipInt, Logger: logger, Metrics: reg}
	var node *gossip.Node
	if len(peerSeeds) > 0 {
		backend, err := remote.New(remote.Config{
			Key:        eng.Key,
			MaxPerPeer: *perPeer,
			Logger:     logger,
		})
		if err != nil {
			fatalf("-peers: %v", err)
		}
		defer backend.Close()
		backend.Instrument(reg)
		if node, err = backend.Follow(gcfg); err != nil {
			fatalf("gossip: %v", err)
		}
		eng.SetBatchBackend(backend)
		apiCfg.ClusterStatus = func() any { return backend.Status() }
	} else {
		var err error
		if node, err = gossip.NewNode(gcfg); err != nil {
			fatalf("gossip: %v", err)
		}
	}
	defer node.Close()
	apiCfg.Gossip = node
	for _, m := range node.Members() {
		if m.ID == self.ID {
			self = m // a coordinator's gossiped row has no URL
		}
	}
	logger.Info("gossip membership", "member", self.ID, "url", self.URL,
		"seeds", len(seeds), "coordinator", len(peerSeeds) > 0,
		"interval", gossipInt.String())

	api := httpapi.New(ctx, eng, apiCfg)
	defer api.Close()
	root := http.Handler(api)
	if *pprofOn {
		// pprof is opt-in: profiles expose internals (and Profile blocks a
		// goroutine for the sampling window), so they stay off the default
		// surface. The API handles everything else.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", api)
		root = mux
	}
	srv := &http.Server{
		Addr:        *addr,
		Handler:     root,
		BaseContext: func(net.Listener) context.Context { return ctx },
	}

	errc := make(chan error, 1)
	go func() {
		logger.Info("dramthermd listening",
			"addr", *addr, "workers", eng.Workers(), "job_ttl", jobTTL.String(),
			"max_jobs", *maxJobs, "pprof", *pprofOn, "config", eng.System().ConfigDigest())
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		fatalf("serve: %v", err)
	case <-ctx.Done():
	}

	logger.Info("shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		logger.Warn("shutdown", "err", err.Error())
	}

}
