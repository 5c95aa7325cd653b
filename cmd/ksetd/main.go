// Command ksetd is one node of a k-set consensus cluster: it listens for
// peer and control connections, maintains reliable links to its peers over
// an adversarial (fault-injected) transport, and serves any number of
// concurrent consensus instances, each running one of the paper's
// message-passing protocols.
//
// Usage:
//
//	ksetd -id 0 -peers host0:7000,host1:7000,host2:7000 -k 2 -t 1
//	ksetd -id 1 -peers ... -listen :7000 -seed 7 \
//	      -drop 0.1 -delay 0.2 -max-delay 5ms
//	ksetd -id 0 -peers ... -metrics :9100 -log-level debug
//	ksetd -id 0 -peers ... -t 1 -acs
//
// The -peers list must name every node in id order, so its length is the
// cluster size n; entry -id is this node's advertised address. Instances
// are started by ksetctl (or any controller speaking the wire protocol), and
// each Start names the protocol it runs (FloodMin when it names none).
//
// With -acs the node additionally runs the agreement-on-common-subset
// engine (internal/acs): controllers can submit values with `ksetctl log
// append` and read the resulting ordered log with `ksetctl log tail`. ACS
// requires 2t < n, which is validated at startup.
//
// With -metrics ADDR the node also serves HTTP: GET /metrics returns the
// node's counters and latency histograms in the Prometheus text exposition
// format, and GET /healthz returns 200 "ok" while the node is up.
//
//ksetlint:package-allow determinism the daemon serves real sockets, signals and HTTP on goroutines
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"kset/internal/acs"
	"kset/internal/cluster"
	"kset/internal/obs"
	"kset/internal/types"
)

func main() {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := run(os.Args[1:], os.Stderr, ctx.Done(), nil); err != nil {
		fmt.Fprintln(os.Stderr, "ksetd:", err)
		os.Exit(1)
	}
}

// readyAddrs reports the daemon's bound addresses to a test harness: the
// node's listen address, and the metrics endpoint's (empty when -metrics is
// not given).
type readyAddrs struct {
	Node    string
	Metrics string
}

// run starts the node and serves until stop closes. If ready is non-nil it
// receives the bound addresses once the node is up (tests use it to learn :0
// port assignments).
func run(args []string, logw io.Writer, stop <-chan struct{}, ready chan<- readyAddrs) error {
	fs := flag.NewFlagSet("ksetd", flag.ContinueOnError)
	fs.SetOutput(logw)
	var (
		id       = fs.Int("id", 0, "this node's process id (0..n-1)")
		peers    = fs.String("peers", "", "comma-separated peer addresses in id order (required)")
		listen   = fs.String("listen", "", "listen address (default: the -peers entry for -id)")
		k        = fs.Int("k", 1, "default agreement bound")
		t        = fs.Int("t", 0, "default failure bound")
		seed     = fs.Uint64("seed", 1, "fault-injection and protocol seed")
		drop     = fs.Float64("drop", 0, "probability a transmission attempt is dropped")
		dup      = fs.Float64("dup", 0, "probability a transmission attempt is duplicated")
		delay    = fs.Float64("delay", 0, "probability a transmission attempt is delayed")
		maxDelay = fs.Duration("max-delay", 20*time.Millisecond, "upper bound on injected delays")
		shards   = fs.Int("shards", 0, "shard event loops serving instances (0: GOMAXPROCS)")
		acsMode  = fs.Bool("acs", false, "serve the agreement-on-common-subset engine and its ordered log")
		quiet    = fs.Bool("quiet", false, "suppress the event log")
		metrics  = fs.String("metrics", "", "HTTP address serving /metrics and /healthz (empty: disabled)")
		logLevel = fs.String("log-level", "info", "structured event log threshold: debug, info, warn, error")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *peers == "" {
		return fmt.Errorf("-peers is required")
	}
	addrs := cluster.ParseAddrs(*peers)
	n := len(addrs)
	// Validate the core sizing flags up front: a bad -peers/-k/-t should
	// fail here with the flag named, not deep inside instance registration.
	if n == 0 {
		return fmt.Errorf("-peers %q: no usable addresses", *peers)
	}
	if *k <= 0 {
		return fmt.Errorf("-k %d: agreement bound must be positive", *k)
	}
	if *t < 0 || *t >= n {
		return fmt.Errorf("-t %d: failure bound must satisfy 0 <= t < n (n=%d)", *t, n)
	}
	if *acsMode && 2**t >= n {
		return fmt.Errorf("-acs with -t %d and n=%d: acs requires 2t < n so that IN/OUT certificates cannot collide", *t, n)
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("-log-level: %w", err)
	}
	events := obs.Discard()
	if !*quiet {
		events = obs.NewLogger(logw, level)
	}
	node, err := cluster.NewNode(cluster.Config{
		ID:     types.ProcessID(*id),
		N:      n,
		K:      *k,
		T:      *t,
		Peers:  addrs,
		Listen: *listen,
		Seed:   *seed,
		Shards: *shards,
		Faults: cluster.Faults{
			Drop:     *drop,
			Dup:      *dup,
			Delay:    *delay,
			MaxDelay: *maxDelay,
		},
		Log: events,
	})
	if err != nil {
		return err
	}
	// The engine must attach before Start: Start begins serving frames, and
	// the ACS handlers have to be registered before the first one arrives.
	if *acsMode {
		if _, err := acs.New(acs.Config{Node: node, Log: events}); err != nil {
			node.Close()
			return err
		}
	}
	if err := node.Start(); err != nil {
		return err
	}
	lifecycle := events.With("node", types.ProcessID(*id))
	lifecycle.Info("listening", "addr", node.Addr(), "n", n, "acs", *acsMode)

	metricsAddr := ""
	var msrv *http.Server
	var msrvWG sync.WaitGroup
	if *metrics != "" {
		mln, err := net.Listen("tcp", *metrics)
		if err != nil {
			node.Close()
			return fmt.Errorf("metrics listener: %w", err)
		}
		metricsAddr = mln.Addr().String()
		msrv = &http.Server{Handler: metricsMux(node)}
		msrvWG.Add(1)
		go func() {
			defer msrvWG.Done()
			if err := msrv.Serve(mln); err != nil && err != http.ErrServerClosed {
				lifecycle.Error("metrics server failed", "err", err.Error())
			}
		}()
		lifecycle.Info("metrics on", "url", "http://"+metricsAddr+"/metrics")
	}

	if ready != nil {
		ready <- readyAddrs{Node: node.Addr(), Metrics: metricsAddr}
	}
	<-stop
	lifecycle.Info("shutting down")
	if msrv != nil {
		if err := msrv.Close(); err != nil {
			lifecycle.Warn("metrics server close failed", "err", err.Error())
		}
		msrvWG.Wait()
	}
	node.Close()
	return nil
}

// metricsMux serves the node's observability endpoints: the Prometheus text
// exposition at /metrics and a liveness probe at /healthz.
func metricsMux(node *cluster.Node) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := node.Metrics().WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}
