package monitorserver_test

import (
	"net"
	"testing"

	"repro/internal/history"
	"repro/internal/monitorclient"
	"repro/internal/monitorserver"
	"repro/internal/spec"
)

// TestWindowRaceRepro keeps a 2-batch credit window full for 10 000 batches:
// the client refills a slot the moment it reads the ack that freed it, so
// every ack is a chance for the server's reader to see the refill before the
// writer has returned the credit. Before the writer returned credit ahead of
// encoding the ack, a well-behaved client was closed for "credit window
// overrun" within a few hundred batches on 2 CPUs. CI runs it under
// -cpu 1,2; on one CPU the race cannot happen and the test only checks the
// protocol.
func TestWindowRaceRepro(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := monitorserver.Serve(ln, monitorserver.Options{Logf: func(string, ...any) {}})
	defer srv.Close()
	s, err := monitorclient.Dial(ln.Addr().String(), "t", "o", "queue", monitorclient.WithWindow(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		op := spec.Operation{Method: "Enq", Arg: int64(i), Uniq: uint64(i + 1)}
		h := history.History{
			{Kind: history.Invoke, Proc: 0, ID: op.Uniq, Op: op},
			{Kind: history.Return, Proc: 0, ID: op.Uniq, Op: op, Res: spec.OKResp()},
		}
		if err := s.Send(h); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
