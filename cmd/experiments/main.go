// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -run fig9
//	experiments -run all -quick
//	experiments -run fig3 -csv
//	experiments -run fig9 -sample
//	experiments -run sampled -quick
//	experiments -run all -quick -json > artifact.json
//	experiments -run all -parallel 4
//	experiments -run all -cache-dir ~/.cache/dkip
//	experiments -run all -cache-dir /shared/dkip -shard 0/2
//	experiments -run fig9 -quick -remote http://localhost:8321
//	experiments -run all -quick -remote http://a:8321,http://b:8321
//	experiments -run all -remote http://a:8321,http://b:8321 -remote-fallback -cache-dir ~/.cache/dkip
//	experiments -run all -quick -remote http://a:8321,http://b:8321 -progress -client-id ci-shard-0
//
// Each experiment simulates every benchmark of the relevant suite(s) on the
// relevant architecture configurations and prints the same rows or series the
// paper reports, plus notes comparing against the paper's published numbers.
//
// All experiments share one sim.Runner: overlapping configurations across
// figures (e.g. the MEM-400 baselines of Figures 1/2/9/11/12) simulate
// exactly once per invocation, -parallel bounds the worker pool, and -json
// emits a machine-readable artifact holding every table, the structured
// per-run records, and the runner's dedup metrics.
//
// -sample replaces full-detail simulation with sampled simulation: a
// functional cursor warms caches and predictors between periodic detailed
// measurement intervals (default plan, roughly 10x less detailed work), and
// each run's artifact record carries the CPI confidence interval alongside
// the interval layout. The "sampled" experiment quantifies the error this
// introduces against full-detail runs over the Figure 9 grid.
//
// -cache-dir adds a persistent content-addressed result store under the
// in-process cache: a second invocation over the same directory simulates
// nothing. -shard i/n restricts real simulation to a deterministic,
// hash-stable 1/n slice of the run matrix so a full sweep can be split
// across processes or machines sharing one cache directory; tables rendered
// by a sharded run are incomplete (out-of-shard cells not already cached
// read as zeros) — run every shard, then render with an unsharded pass over
// the same -cache-dir.
//
// -remote http://host:port sends every run to a dkipd daemon instead of
// simulating locally: the daemons own the worker pool, cache tiers, and
// sharding, so -parallel/-shard are rejected alongside it — configure them
// on the daemon. The URL list, one URL or several, seeds a serve.Pool: each
// run is routed to one daemon by its content key and sent in 32-spec chunks
// with two in flight per daemon, transient failures retry with backoff, and
// a daemon lost mid-sweep has its keys re-routed to the survivors. With
// -remote-fallback the sweep finishes on a local runner even when every
// daemon is down; -cache-dir is only accepted alongside -remote in that
// combination (it backs the local failover runner — the daemons' stores are
// configured on dkipd).
//
// Fleet extras: -remote-refresh keeps the routing ring synced with the
// fleet's own membership view (daemons started with -advertise), so hosts
// joining or leaving mid-sweep are picked up without restarting the client;
// -client-id names the identity submissions carry for the daemons'
// fair-share admission (default host-pid); -progress streams a live
// done/total counter to stderr while each batch resolves.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dkip/internal/experiments"
	"dkip/internal/sample"
	"dkip/internal/serve"
	"dkip/internal/sim"
)

// artifact is the -json output document.
type artifact struct {
	Scale       experiments.Scale    `json:"scale"`
	Experiments []*experiments.Table `json:"experiments"`
	Runs        []*sim.Result        `json:"runs"`
	Metrics     sim.Metrics          `json:"metrics"`
}

func main() {
	var (
		run            = flag.String("run", "", "experiment id to run, or \"all\"")
		list           = flag.Bool("list", false, "list experiment ids")
		quick          = flag.Bool("quick", false, "reduced instruction counts (seconds instead of minutes)")
		csv            = flag.Bool("csv", false, "emit CSV tables instead of aligned text")
		jsonOut        = flag.Bool("json", false, "emit one JSON artifact: tables, per-run records, runner metrics")
		parallel       = flag.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS)")
		warmup         = flag.Uint64("warmup", 0, "override warmup instructions per run")
		measure        = flag.Uint64("measure", 0, "override measured instructions per run")
		sampled        = flag.Bool("sample", false, "sampled simulation: functional warming with periodic detailed intervals (default plan, ~10x less detailed work)")
		cacheDir       = flag.String("cache-dir", "", "persistent result-store directory (warm-starts later invocations)")
		shard          = flag.String("shard", "", "simulate only shard i of n, as \"i/n\" (requires -cache-dir to be useful)")
		remote         = flag.String("remote", "", "comma-separated dkipd base URLs seeding the fleet every run is sent to (key-routed, 32-spec chunks, two in flight per daemon, retrying); one URL is a one-seed fleet")
		remoteFallback = flag.Bool("remote-fallback", false, "with -remote: finish the sweep on a local runner (sharing -cache-dir) when every daemon is unreachable")
		remoteRefresh  = flag.Duration("remote-refresh", 15*time.Second, "with -remote: refresh the routing ring from the fleet's GET /v1/members view at this interval, discovering daemons that join or leave mid-sweep (0 pins the ring to the -remote list)")
		clientID       = flag.String("client-id", "", "client identity submissions carry (X-Dkip-Client header; default host-pid) — the bucket the daemons' fair-share admission divides gate slots by")
		progress       = flag.Bool("progress", false, "with -remote: stream live sweep progress (GET /v1/progress) to stderr")
	)
	flag.Parse()

	if *list || *run == "" {
		fmt.Println("available experiments:")
		for _, id := range experiments.IDs() {
			title, _ := experiments.Title(id)
			fmt.Printf("  %-20s %s\n", id, title)
		}
		if *run == "" && !*list {
			fmt.Println("\nuse -run <id> or -run all")
		}
		return
	}
	if *csv && *jsonOut {
		fmt.Fprintln(os.Stderr, "experiments: -csv and -json are mutually exclusive")
		os.Exit(2)
	}

	scale := experiments.FullScale()
	if *quick {
		scale = experiments.QuickScale()
	}
	if *warmup > 0 {
		scale.Warmup = *warmup
	}
	if *measure > 0 {
		scale.Measure = *measure
	}
	if *sampled {
		p := sample.DefaultPlan()
		scale.Sample = &p
	}

	var runner sim.Backend
	if *remoteFallback && *remote == "" {
		fmt.Fprintln(os.Stderr, "experiments: -remote-fallback requires -remote")
		os.Exit(2)
	}
	if *remote == "" && (*progress || *clientID != "") {
		fmt.Fprintln(os.Stderr, "experiments: -progress and -client-id require -remote")
		os.Exit(2)
	}
	if *remote != "" {
		// The daemons own the pool, cache tiers, and sharding; local
		// equivalents alongside -remote would silently do nothing.
		if *shard != "" || *parallel != 0 {
			fmt.Fprintln(os.Stderr, "experiments: -remote is exclusive with -parallel/-shard (configure those on dkipd)")
			os.Exit(2)
		}
		if *cacheDir != "" && !*remoteFallback {
			fmt.Fprintln(os.Stderr, "experiments: -cache-dir alongside -remote requires -remote-fallback (it backs the local failover runner; the daemons' stores are configured on dkipd)")
			os.Exit(2)
		}
		// The health handshake honors ^C: an operator waiting on a fleet
		// that is still booting can interrupt instead of riding out the
		// budget.
		ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stopSignals()
		bases := strings.Split(*remote, ",")
		popts := []serve.PoolOption{serve.PoolIdentity(*clientID)}
		if *remoteRefresh > 0 {
			popts = append(popts, serve.PoolMembership(*remoteRefresh))
		}
		if *remoteFallback {
			var fopts []sim.Option
			if *cacheDir != "" {
				store, err := sim.OpenStore(*cacheDir)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				fopts = append(fopts, sim.WithStore(store))
			}
			popts = append(popts, serve.PoolFallback(sim.NewRunner(fopts...)))
		}
		pool, err := serve.NewPool(bases, popts...)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := pool.WaitHealthy(ctx, 5*time.Second); err != nil {
			if !*remoteFallback {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "experiments: %v; continuing on the local fallback runner\n", err)
		}
		runner = pool
		if *progress {
			// Watch the first listed daemon: every member sees fleet-wide
			// completion through the shared store, so one watch point is
			// enough.
			watch := serve.NewClient(strings.TrimSpace(bases[0]), serve.Identity(*clientID))
			runner = &progressBackend{Backend: runner, watch: watch}
		}
	} else {
		opts := []sim.Option{sim.Parallel(*parallel)}
		if *cacheDir != "" {
			store, err := sim.OpenStore(*cacheDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			opts = append(opts, sim.WithStore(store))
		}
		shardI, shardN, err := sim.ParseShard(*shard)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if shardN > 1 {
			opts = append(opts, sim.WithShard(shardI, shardN))
			fmt.Fprintf(os.Stderr, "experiments: shard %d/%d: out-of-shard runs are skipped; "+
				"tables are incomplete until an unsharded pass merges over the same -cache-dir\n",
				shardI, shardN)
		}
		runner = sim.NewRunner(opts...)
	}

	ids := []string{*run}
	if *run == "all" {
		ids = experiments.IDs()
	}
	var tables []*experiments.Table
	for _, id := range ids {
		start := time.Now()
		t, err := experiments.RunWith(runner, id, scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		switch {
		case *jsonOut:
			tables = append(tables, t)
		case *csv:
			fmt.Print(t.CSV())
		default:
			fmt.Print(t.String())
			fmt.Printf("(%s, %v)\n\n", id, time.Since(start).Round(time.Millisecond))
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(artifact{
			Scale:       scale,
			Experiments: tables,
			Runs:        runner.Results(),
			Metrics:     runner.Metrics(),
		}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *run == "all" {
		m := runner.Metrics()
		fmt.Fprintf(os.Stderr, "runner: %d runs requested, %d simulated, %d served by dedup/cache, %d from disk, %d skipped (out of shard)\n",
			m.Requested, m.Simulated, m.Deduped+m.CacheHits, m.DiskHits, m.Skipped)
		if m.DiskWrites > 0 && *cacheDir != "" {
			fmt.Fprintf(os.Stderr, "runner: %d results persisted to %s\n", m.DiskWrites, *cacheDir)
		}
	}
}

// progressBackend decorates a remote Backend with a live progress line:
// while each RunAll batch resolves, a second goroutine streams
// GET /v1/progress for the batch's content keys from one daemon and rewrites
// a done/total counter on stderr. Stream failures are silent — progress is
// cosmetic, the submission path is the source of truth.
type progressBackend struct {
	sim.Backend
	watch *serve.Client
}

func (b *progressBackend) Run(spec sim.RunSpec) (*sim.Result, error) {
	results, err := b.RunAll([]sim.RunSpec{spec})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

func (b *progressBackend) RunAll(specs []sim.RunSpec) ([]*sim.Result, error) {
	keys := serve.ProgressKeys(specs)
	if len(keys) == 0 {
		return b.Backend.RunAll(specs)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = b.watch.Progress(ctx, keys, 0, func(ev serve.ProgressEvent) {
			fmt.Fprintf(os.Stderr, "\rprogress: %d/%d runs resolved", ev.Done, ev.Total)
		})
	}()
	res, err := b.Backend.RunAll(specs)
	cancel()
	<-done
	fmt.Fprintln(os.Stderr)
	return res, err
}
