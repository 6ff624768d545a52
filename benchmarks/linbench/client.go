package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/check"
	"repro/internal/monitorapi"
)

// This file is the load generator's wire client. It speaks monitorapi frames
// directly instead of going through monitorclient, for two reasons: the
// frames are pre-encoded, so the timed loop does no JSON encoding, and the
// benchmark must not inherit the library client's flow-control behaviour —
// it is one of the things under measurement (monitorclient.* metrics).

var byeFrame = []byte(`{"type":"bye"}` + "\n")

// session is one open connection.
type session struct {
	nc      net.Conn
	br      *bufio.Reader
	window  int    // hello.window
	acked   uint64 // hello.acked
	persist bool   // hello.persist
}

func (c *session) read() (monitorapi.ServerFrame, error) {
	var f monitorapi.ServerFrame
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(line, &f); err != nil {
		return f, fmt.Errorf("bad server frame %q: %w", line, err)
	}
	if f.Type == monitorapi.FrameOverload || f.Type == monitorapi.FrameError {
		return f, fmt.Errorf("server sent %s: %s", f.Type, f.Err)
	}
	return f, nil
}

// dialOpen connects, writes s's open frame and reads the hello. Every I/O
// call on the connection is bounded by deadline.
func dialOpen(addr string, s *stream, deadline time.Time) (*session, error) {
	nc, err := net.DialTimeout("tcp", addr, time.Until(deadline))
	if err != nil {
		return nil, err
	}
	nc.SetDeadline(deadline)
	c := &session{nc: nc, br: bufio.NewReaderSize(nc, 16<<10)}
	if _, err := nc.Write(s.open); err != nil {
		nc.Close()
		return nil, err
	}
	f, err := c.read()
	if err == nil && f.Type != monitorapi.FrameHello {
		err = fmt.Errorf("expected hello, got %q", f.Type)
	}
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("open %s: %w", s.object, err)
	}
	c.window, c.acked, c.persist = f.Window, f.Acked, f.Persist
	return c, nil
}

// sample is one latency observation carrying its weight: a batch's latency
// counts once per event in it, an object's once.
type sample struct {
	ns     int64
	weight int
}

// batchTimes are the client-side timestamps of one batch in a traced pass,
// in nanoseconds since the phase's epoch.
type batchTimes struct {
	stream       *stream
	seq          int
	write, wrote int64 // around the Write call that carried the frame
	acked        int64 // when its ack had been read
}

// connResult is what one connection's play produced.
type connResult struct {
	attempted, failed int // operations: batches, or objects when perObject
	events, batches   int // acked
	lat               []sample
	openNs, byeNs     []int64
	stallNs           int64 // waiting for an ack while batches were left to send
	stats             check.IncStats
	saves             int               // advances of ack.durable seen: checkpoints taken
	retainedMax       int               // highest gauge.retained_events seen
	frontierMax       int               // highest gauge.frontier_states seen
	err               error             // first failure
	verdicts          map[string]string // object -> ack verdicts as Y/N, traced only
	times             []batchTimes      // traced only
}

// merge folds another connection's result into r.
func (r *connResult) merge(c *connResult) {
	r.attempted += c.attempted
	r.failed += c.failed
	r.events += c.events
	r.batches += c.batches
	r.lat = append(r.lat, c.lat...)
	r.openNs = append(r.openNs, c.openNs...)
	r.byeNs = append(r.byeNs, c.byeNs...)
	r.stallNs += c.stallNs
	r.saves += c.saves
	r.retainedMax = max(r.retainedMax, c.retainedMax)
	r.frontierMax = max(r.frontierMax, c.frontierMax)
	addStats(&r.stats, c.stats)
	if r.err == nil {
		r.err = c.err
	}
	if c.verdicts != nil && r.verdicts == nil {
		r.verdicts = make(map[string]string)
	}
	for k, v := range c.verdicts {
		r.verdicts[k] = v
	}
	r.times = append(r.times, c.times...)
}

func (r *connResult) fail(ops int, err error) {
	r.failed += ops
	if r.err == nil {
		r.err = err
	}
}

// player plays a list of streams over one connection at a time.
type player struct {
	addr      string
	streams   []*stream
	inflight  int
	perObject bool
	traced    bool
	epoch     time.Time
	deadline  time.Time
	acked     *atomic.Int64 // events acked so far, shared by the phase
	first     *session      // streams[0]'s session, opened before the timed region
	res       connResult
}

// openFirst opens the first stream's session; the caller times it as part of
// set-up and starts the timed region afterwards.
func (p *player) openFirst() error {
	t := time.Now()
	c, err := dialOpen(p.addr, p.streams[0], p.deadline)
	if err != nil {
		return err
	}
	p.res.openNs = append(p.res.openNs, time.Since(t).Nanoseconds())
	p.first = c
	return nil
}

// run plays every stream. It never retries: whatever a session did not get a
// correct answer for is counted failed, and the next stream starts on a new
// connection.
func (p *player) run() {
	if p.traced {
		p.res.verdicts = make(map[string]string)
	}
	for i, s := range p.streams {
		c := p.first
		start := time.Now()
		if i > 0 || c == nil {
			var err error
			c, err = dialOpen(p.addr, s, p.deadline)
			if err != nil {
				p.countOps(s, s.batches(), err)
				continue
			}
			p.res.openNs = append(p.res.openNs, time.Since(start).Nanoseconds())
		}
		bad, err := p.play(c, s)
		c.nc.Close()
		p.countOps(s, bad, err)
		if p.perObject && bad == 0 {
			p.res.lat = append(p.res.lat, sample{time.Since(start).Nanoseconds(), 1})
		}
	}
	p.first = nil
}

// countOps books one stream's outcome as operations.
func (p *player) countOps(s *stream, badBatches int, err error) {
	if p.perObject {
		p.res.attempted++
		if badBatches > 0 {
			p.res.fail(1, err)
		}
		return
	}
	p.res.attempted += s.batches()
	if badBatches > 0 {
		p.res.fail(badBatches, err)
	}
}

// play streams s's batches over c, says bye and checks the stats frame. It
// returns how many batches did not get a correct ack (at least 1 when only
// the final stats were wrong).
func (p *player) play(c *session, s *stream) (bad int, err error) {
	n := s.batches()
	if c.acked != 0 {
		return n, fmt.Errorf("%s: fresh object greeted with acked=%d", s.object, c.acked)
	}
	// The credit window is hello.window, but this client never has more than
	// window-1 batches unacked. serveConn's writer decrements the server's
	// unacked count only after the ack is already on the wire, so a client
	// that refills the freed slot at once can have its next batch counted
	// against a window the server still believes full, and is closed for
	// "credit window overrun" on hosts with two or more CPUs. The writer is
	// sequential — by the time ack i+1 is on the wire, ack i's decrement has
	// happened — so one slot of slack makes the overrun impossible without
	// touching the server.
	k := min(p.inflight, c.window-1)
	if k < 1 {
		return n, fmt.Errorf("%s: window %d leaves no safe slot", s.object, c.window)
	}
	sendAt := make([]int64, n)
	var verdicts []byte
	var times []batchTimes
	if p.traced {
		verdicts = make([]byte, 0, n)
		times = make([]batchTimes, n)
	}
	sent, acked, good := 0, 0, 0
	sawNo := false
	var wrong error // first wrong verdict
	var durable uint64
	for acked < n {
		if sent < n && sent-acked < k {
			m := min(n, acked+k)
			from := 0
			if sent > 0 {
				from = s.end[sent-1]
			}
			t0 := time.Since(p.epoch).Nanoseconds()
			if _, err := c.nc.Write(s.frames[from:s.end[m-1]]); err != nil {
				return n - good, err
			}
			var t1 int64
			if p.traced {
				t1 = time.Since(p.epoch).Nanoseconds()
			}
			for i := sent; i < m; i++ {
				sendAt[i] = t0
				if p.traced {
					times[i] = batchTimes{stream: s, seq: i + 1, write: t0, wrote: t1}
				}
			}
			sent = m
		}
		waitFrom := time.Since(p.epoch).Nanoseconds()
		f, err := c.read()
		if err != nil {
			return n - good, fmt.Errorf("%s: batch %d: %w", s.object, acked+1, err)
		}
		now := time.Since(p.epoch).Nanoseconds()
		if sent < n {
			p.res.stallNs += now - waitFrom
		}
		if f.Type == monitorapi.FrameGauge {
			if f.Gauge != nil {
				p.res.retainedMax = max(p.res.retainedMax, f.Gauge.RetainedEvents)
				p.res.frontierMax = max(p.res.frontierMax, f.Gauge.FrontierStates)
			}
			continue
		}
		if f.Type != monitorapi.FrameAck || f.Seq != uint64(acked+1) {
			return n - good, fmt.Errorf("%s: expected ack %d, got %s %d", s.object, acked+1, f.Type, f.Seq)
		}
		if f.Durable > durable {
			durable = f.Durable
			p.res.saves++
		}
		// An ack carries the verdict after the whole absorb round its batch
		// was applied in, and a round may hold every batch written so far.
		// So "No" is right from the first violating batch on, and also
		// earlier if that batch had already been written; "Yes" is right only
		// before it; and "No" never reverts.
		ok := false
		switch f.Verdict {
		case "No":
			ok = s.firstNo < sent
			sawNo = true
		case "Yes":
			ok = acked < s.firstNo && !sawNo
		}
		if ok {
			good++
			if !p.perObject {
				p.res.lat = append(p.res.lat, sample{now - sendAt[acked], s.nev[acked]})
			}
		} else if wrong == nil {
			wrong = fmt.Errorf("%s: batch %d: verdict %q, want %q", s.object, acked+1, f.Verdict, s.want(acked))
		}
		if p.traced {
			verdicts = append(verdicts, f.Verdict[0])
			times[acked].acked = now
		}
		p.res.events += s.nev[acked]
		p.res.batches++
		p.acked.Add(int64(s.nev[acked]))
		acked++
	}
	if p.traced {
		p.res.verdicts[s.object] = string(verdicts)
		p.res.times = append(p.res.times, times...)
	}
	bad = n - good

	t := time.Now()
	if _, err := c.nc.Write(byeFrame); err != nil {
		return max(bad, 1), err
	}
	for {
		f, err := c.read()
		if err != nil {
			return max(bad, 1), fmt.Errorf("%s: bye: %w", s.object, err)
		}
		if f.Type == monitorapi.FrameGauge {
			continue
		}
		if f.Type != monitorapi.FrameStats || f.Stats == nil {
			return max(bad, 1), fmt.Errorf("%s: expected stats, got %s", s.object, f.Type)
		}
		p.res.byeNs = append(p.res.byeNs, time.Since(t).Nanoseconds())
		if f.Stats.Check.Events != s.events {
			return max(bad, 1), fmt.Errorf("%s: stats.check.events = %d, sent %d", s.object, f.Stats.Check.Events, s.events)
		}
		if want := s.want(n - 1); f.Verdict != want {
			return max(bad, 1), fmt.Errorf("%s: final verdict %q, want %q", s.object, f.Verdict, want)
		}
		addStats(&p.res.stats, f.Stats.Check)
		return bad, wrong
	}
}

// addStats folds the counters the benchmark reports into a phase total.
func addStats(a *check.IncStats, b check.IncStats) {
	a.Appends += b.Appends
	a.Events += b.Events
	a.SegChecks += b.SegChecks
	a.SegExplored += b.SegExplored
	a.SearchRebuilds += b.SearchRebuilds
	a.Compactions += b.Compactions
	a.CommitCuts += b.CommitCuts
	a.GCRuns += b.GCRuns
	a.FrontierOverflows += b.FrontierOverflows
	a.FastTierHits += b.FastTierHits
	a.FastTierFallbacks += b.FastTierFallbacks
}
