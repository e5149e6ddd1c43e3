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
//	dramthermd -gossip -peers http://w1:8080 -advertise http://coord:8080
//	dramthermd -gossip -join http://coord:8080 -advertise http://w3:8080
//
// With -peers the node coordinates a cluster: runs are fanned out to the
// listed dramthermd workers by consistent hashing on the canonical spec
// key (each worker's cache stays hot for its shard), dead peers are
// ejected by health probes and failed shards retry on the next ring
// member, falling back to local execution when every peer is down. All
// dispatch between nodes is batched: each peer receives its entire shard
// of a sweep in one /v1/exec/batch request and streams per-spec outcomes
// back — so a big grid costs one round trip per peer, not per spec — and
// a single run (POST /v1/exec or /v1/runs on the coordinator) travels as
// a shard of one. Any node can be a coordinator; workers need no flags
// at all. See docs/ARCHITECTURE.md.
//
// With -gossip the membership is epidemic instead of static: the node
// keeps a versioned membership table (id, url, incarnation,
// alive/suspect/dead) and anti-entropy syncs it with a few random
// members per interval over POST /v1/gossip, so workers join and leave
// a running cluster without a coordinator restart. -peers becomes the
// seed list (and the coordinator's initial ring); a worker joins an
// existing cluster with -join <seed-url> and needs no restart of
// anything else. Ring-probe ejections feed the table as suspicions; a
// falsely suspected node refutes by bumping its incarnation, and
// confirmed-dead members are quarantined, then forgotten. Without
// -gossip the static -peers list behaves exactly as before (legacy
// mode).
//
// Endpoints:
//
//	GET    /v1/healthz           version, uptime, run-cache statistics, peer ring, membership
//	GET    /metrics              Prometheus text exposition (cache, pool, jobs, HTTP, ring, gossip)
//	GET    /debug/pprof/         runtime profiles (opt-in via -pprof)
//	POST   /v1/gossip            anti-entropy membership exchange (with -gossip)
//	POST   /v1/handoff           cache replication ingest: NDJSON result stream (with -replication)
//	POST   /v1/exec              synchronous single-run execution
//	POST   /v1/exec/batch        shard execution (cluster dispatch): specs in, streamed NDJSON outcomes out
//	POST   /v1/runs              async submit: {"mix":"W1","policy":"DTM-ACG"} → {"id":"run-1"}
//	GET    /v1/runs              job listing (?status=running, ?offset=, ?limit=)
//	GET    /v1/runs/{id}         job status/result (?traces=1 for temperature traces)
//	GET    /v1/runs/{id}/events  live per-spec progress over SSE
//	DELETE /v1/runs/{id}         cancel in-flight / evict finished
//	POST   /v1/sweeps            sync grid sweep (?async=1 submits a job), e.g.
//	                             {"grid":{"mixes":["W1","W2"],"policies":["DTM-TS","DTM-BW"]},
//	                              "normalize":true}
//
// With -segment-dir the run cache and level-1 trace store are durable:
// every completed result is appended to a crash-safe segment log as it
// finishes (not on shutdown), replayed at boot, and compacted in the
// background. With -replication each completed result is also pushed
// to its key's ring successor over POST /v1/handoff (RF=2), cached
// shards stream to new owners on membership changes, and a dead
// primary's replica holder is promoted in place — so a worker crash
// loses no cached result.
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
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync/atomic"
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

// parsePeers expands the -peers flag: either a comma-separated list of
// entries or @path naming a file with one entry per line (blank lines
// and #-comments skipped). Each entry is a bare URL or id=url.
func parsePeers(arg string) ([]remote.Peer, error) {
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
		return nil, fmt.Errorf("no peers in %q", arg)
	}
	out := make([]remote.Peer, len(entries))
	for i, e := range entries {
		if id, url, ok := strings.Cut(e, "="); ok {
			out[i] = remote.Peer{ID: id, URL: url}
		} else {
			out[i] = remote.Peer{URL: e}
		}
	}
	return out, nil
}

// seedMembers converts configured peers into gossip seed members,
// deriving ids through remote.DeriveID so the ring and gossip layers
// agree on member identity.
func seedMembers(peers []remote.Peer) []gossip.Member {
	out := make([]gossip.Member, 0, len(peers))
	for _, p := range peers {
		url := strings.TrimRight(p.URL, "/")
		id := p.ID
		if id == "" {
			id = remote.DeriveID(url)
		}
		out = append(out, gossip.Member{ID: id, URL: url})
	}
	return out
}

// advertiseURL resolves the base URL other members reach this node at:
// the -advertise flag when given, otherwise a loopback guess from -addr
// (good enough for single-host clusters and demos).
func advertiseURL(advertise, addr string) string {
	if advertise != "" {
		return strings.TrimRight(advertise, "/")
	}
	if strings.HasPrefix(addr, ":") {
		return "http://127.0.0.1" + addr
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
		replicat = flag.Bool("replication", false, "with -peers: replicate each completed result to its key's ring successor (RF=2) and hand cached shards to new owners on membership changes")
		jobTTL   = flag.Duration("job-ttl", 15*time.Minute, "evict finished jobs this long after completion (0 disables eviction)")
		maxJobs  = flag.Int("max-jobs", sweep.DefaultMaxJobs, "job registry bound; submissions beyond it are rejected while all jobs run")
		peers    = flag.String("peers", "", "cluster mode: comma-separated peer URLs (optionally id=url), or @file with one per line")
		probe    = flag.Duration("peer-probe", 5*time.Second, "peer health-probe period (<=0 disables active probing)")
		perPeer  = flag.Int("peer-conns", 4, "max concurrent requests per peer")

		gossipOn  = flag.Bool("gossip", false, "epidemic membership: gossip the peer table over POST /v1/gossip so workers join/leave without coordinator restarts (-peers becomes the seed list)")
		join      = flag.String("join", "", "with -gossip: seed member URLs (optionally id=url, or @file) to join an existing cluster through, without coordinating")
		advertise = flag.String("advertise", "", "with -gossip: base URL other members reach this node at (default http://127.0.0.1<addr>)")
		nodeID    = flag.String("id", "", "with -gossip: stable member id (default derived from the advertised URL)")
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
	// pool, the HTTP middleware, and (when enabled) the remote backend
	// and gossip node all register here, and GET /metrics renders it.
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

	var peerList []remote.Peer
	if *peers != "" {
		var err error
		if peerList, err = parsePeers(*peers); err != nil {
			fatalf("-peers: %v", err)
		}
	}
	var joinList []remote.Peer
	if *join != "" {
		if !*gossipOn {
			fatalf("-join requires -gossip")
		}
		var err error
		if joinList, err = parsePeers(*join); err != nil {
			fatalf("-join: %v", err)
		}
	}
	poolWidth := *workers
	if poolWidth == 0 && len(peerList) > 0 {
		// A coordinator's pool slots mostly wait on the network, not the
		// CPU: size for the cluster's capacity plus local-fallback
		// headroom instead of local cores. -workers overrides.
		poolWidth = len(peerList)**perPeer + runtime.GOMAXPROCS(0)
	}
	eng := sweep.NewEngine(core.NewSystem(cfg), poolWidth)
	if *prefixOn {
		// Before Instrument (registers the prefix metric families) and
		// before EnableSegmentLog (replays persisted checkpoint records
		// into the sharer).
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
				"bytes", st.Bytes, "traces", eng.System().Store().Len())
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	apiCfg := httpapi.Config{JobTTL: *jobTTL, MaxJobs: *maxJobs, Version: version, Logger: logger, Metrics: reg}
	if apiCfg.JobTTL <= 0 {
		apiCfg.JobTTL = -1 // flag convention: 0 disables; Config uses <0 for that
	}

	// gnode late-binds the gossip node into the backend's detector
	// callbacks: the backend must exist before the node (the node's
	// membership deltas drive SetMembers), so the callbacks may fire
	// before the node is stored.
	var gnode atomic.Pointer[gossip.Node]
	var backend *remote.Backend
	if len(peerList) > 0 {
		probeEvery := *probe
		if probeEvery <= 0 {
			probeEvery = -1 // flag convention: 0 disables; Config uses <0 for that
		}
		bcfg := remote.Config{
			Peers:       peerList,
			Key:         eng.Key,
			MaxPerPeer:  *perPeer,
			ProbeEvery:  probeEvery,
			Logger:      logger,
			Replication: *replicat,
			Entries:     eng.Range,
		}
		if *gossipOn {
			// Ring-probe ejections are the local failure detector behind
			// gossip suspicion; probe-confirmed recoveries clear it.
			bcfg.OnPeerDown = func(id string, err error) {
				if n := gnode.Load(); n != nil {
					n.Suspect(id)
				}
			}
			bcfg.OnPeerUp = func(id string) {
				if n := gnode.Load(); n != nil {
					n.Alive(id)
				}
			}
		}
		var err error
		if backend, err = remote.New(bcfg); err != nil {
			fatalf("-peers: %v", err)
		}
		defer backend.Close()
		backend.Instrument(reg)
		eng.SetBatchBackend(backend)
		apiCfg.ClusterStatus = func() any { return backend.Status() }
		if *replicat {
			apiCfg.ReplicationStatus = func() any { return backend.ReplicationStatus() }
		}
		logger.Info("cluster mode: coordinating peers",
			"peers", len(peerList), "replication", *replicat)
	}

	if *gossipOn {
		self := gossip.Member{ID: *nodeID, URL: advertiseURL(*advertise, *addr)}
		if self.ID == "" {
			self.ID = remote.DeriveID(self.URL)
		}
		gcfg := gossip.Config{
			Self:     self,
			Seeds:    seedMembers(append(append([]remote.Peer(nil), peerList...), joinList...)),
			Interval: *gossipInt,
			Logger:   logger,
		}
		if backend != nil {
			selfID := self.ID
			gcfg.OnChange = func(ms []gossip.Member) {
				var ring []remote.Peer
				for _, m := range ms {
					if m.ID != selfID && m.State != gossip.Dead && m.URL != "" {
						ring = append(ring, remote.Peer{ID: m.ID, URL: m.URL})
					}
				}
				backend.SetMembers(ring)
			}
		}
		node, err := gossip.NewNode(gcfg)
		if err != nil {
			fatalf("-gossip: %v", err)
		}
		defer node.Close()
		node.Instrument(reg)
		gnode.Store(node)
		apiCfg.Gossip = node
		logger.Info("gossip mode: joined membership",
			"member", self.ID, "url", self.URL, "seeds", len(gcfg.Seeds), "interval", gossipInt.String())
	}

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
