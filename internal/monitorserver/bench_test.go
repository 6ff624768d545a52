package monitorserver_test

import (
	"fmt"
	"net"
	"sync"
	"testing"

	"repro/internal/check"
	"repro/internal/ckpt"
	"repro/internal/history"
	"repro/internal/monitorclient"
	"repro/internal/monitorserver"
	"repro/internal/spec"
	"repro/internal/trace"
)

// BenchmarkLoopbackIngest measures the whole loopback ingest path — client
// encode, server decode/convert/stage, one-shard Append, ack round-trip —
// with one iteration per acked batch. allocs/op is the headline number: the
// server's reader scans each events frame straight into the batch's History
// (monitorapi.FrameDecoder, one allocation per frame) and its writer
// appends acks into a buffered writer without reflection, so what remains is
// mostly the client's json.Encoder and the monitor; EXPERIMENTS.md records
// the before/after. The counter model keeps the monitor's own cost small so
// the wire path dominates. A fresh object per pass lets the same
// deterministic batches replay against a fresh monitor, whatever b.N is.
func BenchmarkLoopbackIngest(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := monitorserver.Serve(ln, monitorserver.Options{
		Logf:       func(string, ...any) {},
		GaugeEvery: -1,
	})
	defer srv.Close()

	m, _ := spec.ByName("counter")
	bs := batches(genQuiescing(m, 42, 4, 4096), 128)
	b.ReportAllocs()
	b.ResetTimer()
	sent, obj := 0, 0
	for sent < b.N {
		sess, err := monitorclient.Dial(srv.Addr().String(), "bench", fmt.Sprintf("o%d", obj), "counter")
		if err != nil {
			b.Fatal(err)
		}
		obj++
		for _, batch := range bs {
			if err := sess.Send(batch); err != nil {
				b.Fatal(err)
			}
			if sent++; sent >= b.N {
				break
			}
		}
		if _, err := sess.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoopbackTwoObjects is search_frontier in miniature: an in-process
// server with two workers and two sessions, each streaming its own object's
// trace.FrontierRounds stream one burst per batch with one batch in flight.
// Almost all the work is exact search, so events/s measures how far the two
// objects' searches overlap: with per-object jobs neither session waits for
// the other's search. One iteration streams both sessions to the end on
// fresh objects. The sessions turn the fast tier off, because it decides
// every burst of this stream and the search is what is measured.
func BenchmarkLoopbackTwoObjects(b *testing.B) {
	const rounds = 16
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := monitorserver.Serve(ln, monitorserver.Options{
		Workers:    2,
		Logf:       func(string, ...any) {},
		GaugeEvery: -1,
	})
	defer srv.Close()

	bursts := trace.FrontierRounds(rounds, false)
	events := 0
	for _, burst := range bursts {
		events += len(burst)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		errs := make(chan error, 2)
		for s := range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sess, err := monitorclient.Dial(srv.Addr().String(), "bench", fmt.Sprintf("o%d-%d", i, s), "queue",
					monitorclient.WithConfig(check.Config{Retain: true, NoFastTier: true}), monitorclient.WithWindow(1))
				if err != nil {
					errs <- err
					return
				}
				for _, burst := range bursts {
					if err := sess.Send(burst); err != nil {
						errs <- err
						return
					}
				}
				if v, err := sess.Close(); err != nil || v != check.Yes {
					errs <- fmt.Errorf("verdict %v, err %v", v, err)
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(2*events*b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkLoopbackDurable is BenchmarkLoopbackIngest against a durable
// server: an OsFS store in a temporary directory and a checkpoint every 8
// batches, the cadence of linbench's durable_nq. The saves run beside the
// stream rather than before its acks, so events/s measures how much of the
// write-temp, fsync, rename and prune the ack path still pays.
func BenchmarkLoopbackDurable(b *testing.B) {
	store, err := ckpt.NewStore(ckpt.OsFS{}, b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := monitorserver.Serve(ln, monitorserver.Options{
		Logf:            func(string, ...any) {},
		GaugeEvery:      -1,
		Store:           store,
		CheckpointEvery: 8,
	})
	defer srv.Close()

	m, _ := spec.ByName("counter")
	bs := batches(genQuiescing(m, 42, 4, 4096), 128)
	b.ReportAllocs()
	b.ResetTimer()
	sent, events, obj := 0, 0, 0
	for sent < b.N {
		sess, err := monitorclient.Dial(srv.Addr().String(), "bench", fmt.Sprintf("o%d", obj), "counter")
		if err != nil {
			b.Fatal(err)
		}
		obj++
		for _, batch := range bs {
			if err := sess.Send(batch); err != nil {
				b.Fatal(err)
			}
			events += len(batch)
			if sent++; sent >= b.N {
				break
			}
		}
		if _, err := sess.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkLoopbackChurn is objects_churn in miniature: one iteration is one
// short session on a fresh object over its own TCP connection — dial, open
// with the zero Config, three 32-event batches of a width-2 queue history,
// bye and its stats frame. B/op and allocs/op count both ends of the
// connection; what the server spends per session beyond its monitor is the
// connection's reader, writer and buffers.
func BenchmarkLoopbackChurn(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := monitorserver.Serve(ln, monitorserver.Options{
		Logf:       func(string, ...any) {},
		GaugeEvery: -1,
	})
	defer srv.Close()

	m, _ := spec.ByName("queue")
	streams := make([][]history.History, 16)
	for i := range streams {
		streams[i] = batches(trace.RandomLinearizable(m, int64(i)+1, 2, 96), 32)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := monitorclient.Dial(srv.Addr().String(), "bench", fmt.Sprintf("o%d", i), "queue")
		if err != nil {
			b.Fatal(err)
		}
		for _, batch := range streams[i%len(streams)] {
			if err := sess.Send(batch); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := sess.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
