package monitorapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/history"
	"repro/internal/spec"
	"repro/internal/trace"
)

// eventsFrames encodes h as events frames of n events each, the way
// json.Marshal writes them (the bytes linbench and monitorclient send).
func eventsFrames(tb testing.TB, h history.History, n int) [][]byte {
	tb.Helper()
	wire, err := history.ToWire(h)
	if err != nil {
		tb.Fatal(err)
	}
	var frames [][]byte
	for at, seq := 0, uint64(1); at < len(wire); at, seq = at+n, seq+1 {
		line, err := json.Marshal(ClientFrame{Type: FrameEvents,
			Batch: &EventBatch{Seq: seq, Events: wire[at:min(at+n, len(wire))]}})
		if err != nil {
			tb.Fatal(err)
		}
		frames = append(frames, append(line, '\n'))
	}
	return frames
}

// referenceDecode is the decoder FrameDecoder must agree with: json.Unmarshal
// of the line, then history.FromWire of an events frame's batch.
func referenceDecode(line []byte) (DecodedFrame, error) {
	var f DecodedFrame
	if err := json.Unmarshal(line, &f.ClientFrame); err != nil {
		return DecodedFrame{}, err
	}
	if f.Type == FrameEvents && f.Batch != nil {
		f.Events, f.EventsErr = history.FromWire(f.Batch.Events)
	}
	return f, nil
}

// sameFrame reports how got differs from the reference, or "".
func sameFrame(got, want DecodedFrame, gotErr, wantErr error) string {
	errText := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	switch {
	case errText(gotErr) != errText(wantErr):
		return fmt.Sprintf("error %q, reference %q", errText(gotErr), errText(wantErr))
	case gotErr != nil:
		return ""
	case got.Type != want.Type:
		return fmt.Sprintf("type %q, reference %q", got.Type, want.Type)
	case (got.Open == nil) != (want.Open == nil) || (got.Open != nil && *got.Open != *want.Open):
		return fmt.Sprintf("open %+v, reference %+v", got.Open, want.Open)
	case (got.Batch == nil) != (want.Batch == nil):
		return fmt.Sprintf("batch %v, reference %v", got.Batch != nil, want.Batch != nil)
	case got.Batch != nil && got.Batch.Seq != want.Batch.Seq:
		return fmt.Sprintf("seq %d, reference %d", got.Batch.Seq, want.Batch.Seq)
	case errText(got.EventsErr) != errText(want.EventsErr):
		return fmt.Sprintf("events error %q, reference %q", errText(got.EventsErr), errText(want.EventsErr))
	case (got.Events == nil) != (want.Events == nil) || !slices.Equal(got.Events, want.Events):
		return fmt.Sprintf("events\n%v\nreference\n%v", got.Events, want.Events)
	}
	return ""
}

// fallbackLines are lines the scanner must hand to encoding/json — each one
// a case its subset excludes — paired with canonical lines it must take.
var fallbackLines = []string{
	`{"type":"open","open":{"version":1,"tenant":"t","object":"o","model":"queue"}}`,
	`{"type":"bye"}`,
	`{"type":"events","batch":{"seq":1,"events":[{"kind":"inv","proc":1,"id":1,"op":"Enq","arg":5}]}}`,
	` { "batch" : { "events" : [ { "at" : -3 , "arg" : -0 , "op" : "Deq" , "id" : 7 , "proc" : 2 , "kind" : "inv" } ] , "seq" : 4 } , "type" : "events" } ` + "\r\n",
	`{"type":"events","batch":{"seq":2,"events":[]}}`,
	`{"type":"events","batch":{"seq":2}}`,
	`{"type":"events","batch":{}}`,
	`{"type":"events"}`,
	`{"type":"events","batch":null}`,
	`{"type":"events","batch":{"seq":null,"events":[]}}`,
	`{"Type":"events","batch":{"seq":1,"events":[]}}`,
	`{"type":"events","batch":{"seq":1,"events":[{"Kind":"inv","proc":1,"id":1,"op":"Enq"}]}}`,
	`{"type":"events","batch":{"seq":1,"events":[{"kind":"inv","kind":"ret","proc":1,"id":1,"op":"Enq","res":"ok"}]}}`,
	`{"type":"events","type":"events","batch":{"seq":1,"events":[]}}`,
	`{"type":"events","batch":{"seq":1,"seq":2,"events":[]}}`,
	`{"type":"events","batch":{"seq":1,"events":[{"kind":"inv","proc":1,"id":1,"op":"En\u0071"}]}}`,
	`{"type":"events","batch":{"seq":1,"events":[{"kind":"inv","proc":1,"id":1,"op":"Enq","arg":1e2}]}}`,
	`{"type":"events","batch":{"seq":1,"events":[{"kind":"inv","proc":1,"id":1,"op":"Enq","arg":1.0}]}}`,
	`{"type":"events","batch":{"seq":1,"events":[{"kind":"inv","proc":1,"id":1,"op":"Enq","arg":+5}]}}`,
	`{"type":"events","batch":{"seq":1,"events":[{"kind":"inv","proc":01,"id":1,"op":"Enq"}]}}`,
	`{"type":"events","batch":{"seq":1,"events":[{"kind":"inv","proc":1,"id":18446744073709551616,"op":"Enq"}]}}`,
	`{"type":"events","batch":{"seq":18446744073709551615,"events":[{"kind":"inv","proc":-9223372036854775808,"id":18446744073709551615,"op":"Enq","arg":9223372036854775807}]}}`,
	`{"type":"events","batch":{"seq":1,"events":[{"kind":"inv","proc":1,"id":1,"op":"Enq","arg":9223372036854775808}]}}`,
	`{"type":"events","batch":{"seq":1,"events":[{"kind":"inv","proc":1,"id":-1,"op":"Enq"}]}}`,
	`{"type":"events","batch":{"seq":1,"events":[{"kind":"inv","proc":1,"id":1,"op":"Enq","res":"bogus"}]}}`,
	`{"type":"events","batch":{"seq":1,"events":[{"kind":"ret","proc":1,"id":1,"op":"Deq","res":"+5"},{"kind":"ret","proc":1,"id":1,"op":"Deq","res":"-007"}]}}`,
	`{"type":"events","batch":{"seq":1,"events":[{"kind":"ret","proc":1,"id":1,"op":"Deq","res":"9223372036854775808"}]}}`,
	`{"type":"events","batch":{"seq":1,"events":[{"kind":"ret","proc":1,"id":1,"op":"Deq","res":"-9223372036854775808"}]}}`,
	`{"type":"events","batch":{"seq":1,"events":[{"kind":"ret","proc":1,"id":1,"op":"Deq"}]}}`,
	`{"type":"events","batch":{"seq":1,"events":[{"kind":"nop","proc":1,"id":1}]}}`,
	`{"type":"events","batch":{"seq":1,"events":[{}]}}`,
	`{"type":"events","batch":{"seq":1,"events":[null]}}`,
	`{"type":"events","batch":{"seq":1,"events":[{"kind":"inv","proc":1,"id":3,"op":"Enq","arg":4},{"kind":"inv","proc":2,"id":3,"op":"Push","arg":9},{"kind":"ret","proc":1,"id":3,"res":"ok"}]}}`,
	`{"type":"events","batch":{"seq":1,"events":[{"kind":"inv","proc":1,"id":1,"op":"Frob","arg":4},{"kind":"ret","proc":1,"id":1,"op":"Enq","arg":5,"res":"empty"}]}}`,
	`{"type":"events","batch":{"seq":1,"events":[{"kind":"inv","proc":1,"id":1,"op":"Enq"}],"extra":1}}`,
	`{"type":"events","batch":{"seq":1,"events":[]},"open":null}`,
	`{"type":"events","batch":{"seq":1,"events":[]}} {"type":"bye"}`,
	`{"type":"events","batch":{"seq":1,"events":[]}}x`,
	`{"type":"events","batch":{"seq":1,"events":[],}}`,
	`{"type":"events","batch":{"seq":1,"events":[{"kind":"inv","proc":1,"id":1,"op":"Enq"},]}}`,
	`{"type":"events","batch":{"seq":1,"events":[{"kind":"inv","proc":1,"id":1,"op":"Enq"}`,
	"{\"type\":\"events\",\"batch\":{\"seq\":1,\"events\":[{\"kind\":\"inv\",\"proc\":1,\"id\":1,\"op\":\"E\xffq\"}]}}",
	"{\"type\":\"events\",\"batch\":{\"seq\":1,\"events\":[{\"kind\":\"inv\",\"proc\":1,\"id\":1,\"op\":\"E\tq\"}]}}",
	"{\"type\":\"events\",\"batch\":{\"seq\":1,\"events\":[{\"kind\":\"inv\",\"proc\":1,\"id\":1,\"op\":\"E\x7fq\"}]}}",
	"\xef\xbb\xbf{\"type\":\"bye\"}",
	`{`,
	`{}`,
	`[]`,
	`null`,
	``,
	`"events"`,
}

// longRetsFrame is a batch longer than the scanner's look-back, so a ret
// whose inv is further back, or in no earlier event, switches it to its map.
func longRetsFrame() string {
	var b strings.Builder
	b.WriteString(`{"type":"events","batch":{"seq":9,"events":[`)
	for i := range backScan + 2 {
		fmt.Fprintf(&b, `{"kind":"inv","proc":%d,"id":%d,"op":"Enq","arg":%d},`, i+1, i+1, i)
	}
	for i := range backScan + 2 {
		id := i + 1
		if i%5 == 0 {
			id += 10000 // no inv in this batch
		}
		fmt.Fprintf(&b, `{"kind":"ret","proc":%d,"id":%d,"op":"Deq","res":"ok"},`, i+1, id)
	}
	b.WriteString(`{"kind":"inv","proc":1,"id":2,"op":"Push","arg":77},{"kind":"ret","proc":1,"id":2,"res":"ok"}]}}`)
	return b.String()
}

// FuzzEventsFrame: for any line, FrameDecoder agrees with json.Unmarshal plus
// history.FromWire on acceptance, type, seq, every event and every error
// text — whichever path it takes, and on a decoder that has already decoded
// the line once.
func FuzzEventsFrame(f *testing.F) {
	for _, seed := range []int64{1, 2} {
		for _, line := range eventsFrames(f, trace.NeverQuiescent(spec.Queue(), seed, 4, 48), 32) {
			f.Add(line)
		}
	}
	for _, line := range eventsFrames(f, trace.RandomLinearizable(spec.Set(), 3, 3, 20), 7) {
		f.Add(line)
	}
	for _, line := range fallbackLines {
		f.Add([]byte(line))
	}
	f.Add([]byte(longRetsFrame()))
	f.Fuzz(func(t *testing.T, line []byte) {
		want, wantErr := referenceDecode(line)
		var d FrameDecoder
		for range 2 {
			got, gotErr := d.Decode(line)
			if diff := sameFrame(got, want, gotErr, wantErr); diff != "" {
				t.Fatalf("line %q: %s", line, diff)
			}
		}
	})
}

// TestEventsFrameFastPath: canonical frames — json.Marshal's bytes and a
// whitespace-laden variant — take the scanner, whose only allocation is the
// History; every fallback line still decodes like the reference (the fuzz
// seeds above run as a test too, so this only pins the path taken).
func TestEventsFrameFastPath(t *testing.T) {
	frames := eventsFrames(t, trace.NeverQuiescent(spec.Queue(), 5, 4, 64), 32)
	frames = append(frames, []byte(fallbackLines[3]), []byte(longRetsFrame()))
	var d FrameDecoder
	for _, line := range frames {
		if _, ok := d.scan(line); !ok {
			t.Fatalf("scanner declined a canonical frame: %q", line)
		}
	}
	line := frames[0]
	if allocs := testing.AllocsPerRun(100, func() { d.Decode(line) }); allocs != 1 {
		t.Fatalf("Decode of a canonical frame: %v allocations, want 1", allocs)
	}
	for _, line := range fallbackLines {
		if strings.Contains(line, `"Frob"`) || strings.Contains(line, "-007") {
			if _, ok := d.scan([]byte(line)); !ok {
				t.Fatalf("scanner declined %q", line)
			}
		}
	}
}

// FuzzServerFrameEncode: AppendServerFrame writes exactly what
// json.Encoder.Encode writes for any frame without stats, strings needing
// escapes included.
func FuzzServerFrameEncode(f *testing.F) {
	f.Add(FrameAck, 0, uint64(7), uint64(0), 0, "Yes", "", false, int64(0), false, uint64(3), uint64(0))
	f.Add(FrameHello, 1, uint64(0), uint64(42), 8, "", "", false, int64(0), true, uint64(40), uint64(1<<63+5))
	f.Add(FrameGauge, 0, uint64(16), uint64(0), 0, "", "", true, int64(1<<40), false, uint64(0), uint64(0))
	f.Add(FrameError, 0, uint64(0), uint64(0), 0, "", "bad frame: invalid character '<' & \"x\"\n\t\\", false, int64(0), false, uint64(0), uint64(0))
	f.Add(FrameOverload, -1, uint64(0), uint64(0), -3, "No\u2028\u2029", "\xff\x00\x1f\x7f é", true, int64(-1), false, uint64(0), uint64(0))
	f.Fuzz(func(t *testing.T, typ string, version int, seq, acked uint64, window int, verdict, errText string,
		gauge bool, n int64, persist bool, durable, session uint64) {
		fr := ServerFrame{Type: typ, Version: version, Seq: seq, Acked: acked, Window: window,
			Verdict: verdict, Err: errText, Persist: persist, Durable: durable, Session: session}
		if gauge {
			fr.Gauge = &Gauge{RetainedEvents: int(n), RetainedBytes: n * 3, FrontierStates: int(-n)}
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(fr); err != nil {
			t.Fatal(err)
		}
		got, err := AppendServerFrame([]byte("prefix"), fr)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "prefix"+want.String() {
			t.Fatalf("frame %+v:\n got %q\nwant %q", fr, got[len("prefix"):], want.Bytes())
		}
	})
}

// TestServerFrameEncodeStats: stats frames take json.Marshal.
func TestServerFrameEncodeStats(t *testing.T) {
	fr := ServerFrame{Type: FrameStats, Verdict: "Yes", Stats: &Stats{}}
	want, _ := json.Marshal(fr)
	got, err := AppendServerFrame(nil, fr)
	if err != nil || string(got) != string(want)+"\n" {
		t.Fatalf("got %q, %v; want %q", got, err, want)
	}
	ack := ServerFrame{Type: FrameAck, Seq: 9, Verdict: "Maybe", Durable: 8}
	if allocs := testing.AllocsPerRun(100, func() { AppendServerFrame(make([]byte, 0, 64), ack) }); allocs > 1 {
		t.Fatalf("AppendServerFrame of an ack: %v allocations", allocs)
	}
}

// BenchmarkDecodeEventsFrame prices linmond's per-batch decode on wire_nq's
// shape: never-quiescent queue frames of 32 events over 4 processes, as
// json.Marshal writes them. "scan" is FrameDecoder; "json" is the reader it
// replaced — json.Unmarshal into a ClientFrame, then history.FromWire.
func BenchmarkDecodeEventsFrame(b *testing.B) {
	frames := eventsFrames(b, trace.NeverQuiescent(spec.Queue(), 1, 4, 4096), 32)
	events := 0
	for _, line := range frames {
		f, err := referenceDecode(line)
		if err != nil || f.EventsErr != nil {
			b.Fatal(err, f.EventsErr)
		}
		events += len(f.Events)
	}
	perEvent := float64(len(frames)) / float64(events)
	run := func(b *testing.B, decode func([]byte) (DecodedFrame, error)) {
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			if _, err := decode(frames[i%len(frames)]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N)*perEvent, "us/event")
		b.ReportMetric(testing.AllocsPerRun(1, func() {
			for _, line := range frames {
				decode(line)
			}
		})/float64(events), "allocs/event")
	}
	b.Run("scan", func(b *testing.B) {
		var d FrameDecoder
		run(b, d.Decode)
	})
	b.Run("json", func(b *testing.B) { run(b, referenceDecode) })
}
