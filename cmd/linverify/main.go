// Command linverify decides offline whether a recorded history is
// linearizable with respect to one of the built-in sequential objects — the
// predicate P_O of §3 as a standalone tool.
//
// The history is read from a file or stdin in the versioned interchange
// format (internal/monitorapi, specified in docs/formats.md):
//
//	{
//	  "version": 1,
//	  "model": "queue",
//	  "events": [
//	    {"kind":"inv","proc":1,"id":1,"op":"Enq","arg":5},
//	    {"kind":"ret","proc":1,"id":1,"op":"Enq","res":"ok"},
//	    {"kind":"inv","proc":2,"id":2,"op":"Deq"},
//	    {"kind":"ret","proc":2,"id":2,"op":"Deq","res":"5"}
//	  ]
//	}
//
// The legacy unversioned form — the bare events array on its own — is still
// accepted. An envelope's "model" names the object to verify against;
// -model overrides it (and is the only source for legacy files).
//
// -from converts a foreign trace format on the way in (the adapters of
// internal/traceconv): "jepsen" for JSON-lines operation records, "clientlog"
// for client-side call logs in CSV or JSON lines.
//
// -stream verifies through the streaming reader and the bounded-memory
// incremental monitor instead of materialising the whole history: a
// multi-gigabyte trace verifies in O(window) memory. The verdict is the same
// (the monitor is complete); -witness and -render need the whole history and
// are incompatible with -stream.
//
// Usage:
//
//	linverify history.json
//	cat history.json | linverify -model stack -witness
//	linverify -from jepsen -model register jepsen-history.jsonl
//	linverify -stream huge-trace.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/check"
	"repro/internal/history"
	"repro/internal/monitorapi"
	"repro/internal/spec"
	"repro/internal/traceconv"
)

func main() {
	os.Exit(run())
}

func run() int {
	model := flag.String("model", "", "sequential object: "+spec.ModelNames()+" (default: the envelope's model, or queue)")
	witness := flag.Bool("witness", false, "print a linearization or the shortest violating prefix")
	render := flag.Bool("render", false, "draw the history as per-process lanes")
	from := flag.String("from", "", "convert the input from a foreign trace format first: jepsen or clientlog (see docs/formats.md)")
	stream := flag.Bool("stream", false, "verify through the streaming reader and the bounded-memory monitor (O(window) memory; incompatible with -witness and -render)")
	flag.Parse()

	if *stream && (*witness || *render) {
		fmt.Fprintln(os.Stderr, "-stream cannot produce a -witness or -render: both need the whole history retained")
		return 2
	}
	if *stream && *from != "" {
		fmt.Fprintln(os.Stderr, "-stream reads interchange envelopes only; convert first (traceconv -from "+*from+") and stream the result")
		return 2
	}

	var in io.Reader = os.Stdin
	if flag.NArg() >= 1 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "reading history: %v\n", err)
			return 2
		}
		defer f.Close()
		in = f
	}

	if *stream {
		return runStream(in, *model)
	}

	h, envModel, err := loadHistory(in, *from, *model)
	if err != nil {
		fmt.Fprintf(os.Stderr, "invalid history: %v\n", err)
		return 2
	}
	m, ok := pickModel(*model, envModel)
	if !ok {
		return 2
	}
	if *render {
		fmt.Print(h.Render())
	}

	r := check.Linearizable(m, h)
	if r.Ok {
		fmt.Printf("linearizable with respect to %s (%d states explored)\n", m.Name(), r.Explored)
		if *witness {
			for i, l := range r.Linearization {
				tag := ""
				if l.Pending {
					tag = "  (pending, response chosen)"
				}
				fmt.Printf("%3d. p%d %s : %s%s\n", i+1, l.Proc+1, l.Op, l.Res, tag)
			}
		}
		return 0
	}
	fmt.Printf("NOT linearizable with respect to %s (%d states explored)\n", m.Name(), r.Explored)
	if *witness {
		k := check.FirstViolation(m, h)
		fmt.Printf("shortest violating prefix: %d events\n", k)
		fmt.Print(h[:k].Render())
	}
	return 1
}

// loadHistory materialises the whole history: interchange by default, or a
// foreign format converted through internal/traceconv when -from is given.
func loadHistory(in io.Reader, from, model string) (history.History, string, error) {
	switch from {
	case "":
		data, err := io.ReadAll(in)
		if err != nil {
			return nil, "", err
		}
		return monitorapi.DecodeHistory(data)
	case "jepsen", "clientlog":
		name := model
		if name == "" {
			name = "queue"
		}
		var conv traceconv.Converted
		var err error
		if from == "jepsen" {
			conv, err = traceconv.FromJepsen(in, name)
		} else {
			conv, err = traceconv.FromClientLog(in, name)
		}
		if err != nil {
			return nil, "", err
		}
		h, err := conv.History()
		return h, conv.Model, err
	default:
		return nil, "", fmt.Errorf("unknown source format %q (supported: jepsen, clientlog; see docs/formats.md)", from)
	}
}

// pickModel resolves the model name with the envelope default and prints the
// supported set on failure.
func pickModel(flagModel, envModel string) (spec.Model, bool) {
	name := flagModel
	if name == "" {
		name = envModel
	}
	if name == "" {
		name = "queue"
	}
	m, ok := spec.ByName(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown model %q (supported: %s; see docs/formats.md)\n", name, spec.ModelNames())
		return nil, false
	}
	return m, true
}

// streamChunk is how many events accumulate before an Append under -stream:
// large enough to amortise the segment checks, small enough that memory
// stays O(window).
const streamChunk = 256

// runStream verifies through monitorapi.HistoryReader feeding the
// bounded-memory incremental monitor. Verdict-equivalence with the
// whole-file path is the monitor's retention guarantee (its verdicts equal
// IsLinearizable on the whole history at every append).
func runStream(in io.Reader, flagModel string) int {
	hr, err := monitorapi.NewHistoryReader(in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "invalid history: %v\n", err)
		return 2
	}
	m, ok := pickModel(flagModel, hr.Model())
	if !ok {
		return 2
	}
	inc := check.NewIncremental(m, check.WithConfig(check.Config{Retain: true}))
	verdict := check.Yes
	chunk := make(history.History, 0, streamChunk)
	for {
		e, _, err := hr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "invalid history: %v\n", err)
			return 2
		}
		chunk = append(chunk, e)
		if len(chunk) == streamChunk {
			verdict = inc.Append(chunk)
			chunk = chunk[:0]
			if verdict == check.No {
				break
			}
		}
	}
	if len(chunk) > 0 && verdict != check.No {
		verdict = inc.Append(chunk)
	}
	if err := inc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "invalid history: %v\n", err)
		return 2
	}
	st := inc.Stats()
	switch verdict {
	case check.Yes:
		fmt.Printf("linearizable with respect to %s (streamed %d events, window peak %d)\n", m.Name(), hr.Events(), st.MaxSegment)
		return 0
	case check.No:
		fmt.Printf("NOT linearizable with respect to %s (streamed %d events, window peak %d)\n", m.Name(), hr.Events(), st.MaxSegment)
		return 1
	default:
		fmt.Printf("undecided for %s after %d events\n", m.Name(), hr.Events())
		return 2
	}
}
