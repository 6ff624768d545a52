// Command linmond runs the networked monitoring service: a daemon that
// accepts NDJSON monitoring sessions (internal/monitorapi), maintains one
// incremental linearizability monitor per tenant/object, runs the objects'
// jobs on a pool of worker goroutines so that no object waits for another's
// search or checkpoint, and streams verdicts, resource gauges and final stats
// back to each client.
//
// Usage:
//
//	linmond -listen :7474 -workers 4
//	linmond -listen 127.0.0.1:0 -window 16 -queue 512 -gauge-every 8
//	linmond -listen :7474 -state-dir /var/lib/linmond -checkpoint-every 64
//
// Clients connect with internal/monitorclient (or anything speaking the wire
// format, e.g. cmd/stress -net). Monitor configuration — retention policy,
// parallelism, fast tier — arrives per object in the session-open frame as a
// check.Config, so the daemon itself has no per-object flags.
//
// With -state-dir the daemon is crash-safe: every monitor checkpoints its
// complete resume state into versioned, checksummed envelopes (internal/ckpt)
// every -checkpoint-every applied batches and once more on shutdown, and a
// restarted daemon resumes each object from its newest intact checkpoint —
// reconnecting clients replay only the tail past the restored sequence
// (docs/api.md, "Durable state").
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/ckpt"
	"repro/internal/monitorserver"
)

func main() {
	os.Exit(run())
}

func run() int {
	listen := flag.String("listen", "127.0.0.1:7474", "address to listen on")
	workers := flag.Int("workers", 1, "worker goroutines that run objects' jobs (searches and checkpoint encoding); with -state-dir, also the number of checkpoint writers")
	queue := flag.Int("queue", 256, "global ingest queue depth (batches)")
	window := flag.Int("window", 8, "default per-session credit window (max unacked batches)")
	gaugeEvery := flag.Int("gauge-every", 16, "stream a gauge frame every n acks (<0 disables)")
	stateDir := flag.String("state-dir", "", "directory for durable monitor checkpoints (empty disables persistence)")
	ckptEvery := flag.Int("checkpoint-every", 64, "checkpoint an object every n applied batches (with -state-dir)")
	flag.Parse()

	if *workers < 1 || *queue < 1 || *window < 1 {
		fmt.Fprintln(os.Stderr, "-workers, -queue and -window must be positive")
		return 2
	}
	if *ckptEvery < 1 {
		fmt.Fprintln(os.Stderr, "-checkpoint-every must be positive")
		return 2
	}
	var store *ckpt.Store
	if *stateDir != "" {
		var err error
		store, err = ckpt.NewStore(ckpt.OsFS{}, *stateDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "state dir: %v\n", err)
			return 2
		}
	}

	// Before anything announces the daemon: a supervisor that sends SIGTERM
	// the moment it reads the listening line must get the graceful drain
	// (final checkpoints included), not the default action.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "listen: %v\n", err)
		return 2
	}
	srv := monitorserver.Serve(ln, monitorserver.Options{
		Workers:         *workers,
		QueueDepth:      *queue,
		Window:          *window,
		GaugeEvery:      *gaugeEvery,
		Store:           store,
		CheckpointEvery: *ckptEvery,
	})
	durable := ""
	if store != nil {
		durable = fmt.Sprintf(" state-dir=%s checkpoint-every=%d", *stateDir, *ckptEvery)
	}
	log.Printf("linmond: listening on %s (workers=%d queue=%d window=%d%s)",
		srv.Addr(), *workers, *queue, *window, durable)

	<-sig
	log.Printf("linmond: shutting down")
	srv.Close()
	return 0
}
