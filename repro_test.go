package repro

import (
	"os"
	"sync"
	"testing"

	"repro/internal/history"
	"repro/internal/impls"
	"repro/internal/trace"
)

// TestFacadeQuickstart exercises the whole public API surface the way the
// README shows it.
func TestFacadeQuickstart(t *testing.T) {
	q := SelfEnforce(NewMSQueue(), 2, Queue())
	var uniq trace.UniqSource
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				enq := Operation{Method: "Enq", Arg: int64(100*p + i), Uniq: uniq.Next()}
				if _, rep := q.Apply(p, enq); rep != nil {
					t.Errorf("false error:\n%s", rep.Witness.String())
					return
				}
				deq := Operation{Method: "Deq", Uniq: uniq.Next()}
				if _, rep := q.Apply(p, deq); rep != nil {
					t.Errorf("false error:\n%s", rep.Witness.String())
					return
				}
			}
		}(p)
	}
	wg.Wait()
	cert, err := q.Certify(0)
	if err != nil {
		t.Fatalf("Certify: %v", err)
	}
	if !IsLinearizable(Queue(), cert) {
		t.Fatal("certificate not linearizable")
	}
}

func TestFacadeHistoryAPI(t *testing.T) {
	h := NewBuilder().
		Call(0, "Enq", 1, Response{Kind: 1}). // KindNone
		Call(1, "Deq", 0, Response{Kind: 2, Val: 1}).
		History()
	if !IsLinearizable(Queue(), h) {
		t.Fatal("linearizable history rejected")
	}
	lin, ok := Linearization(Queue(), h)
	if !ok || len(lin) != 2 {
		t.Fatalf("Linearization = %v, %v", lin, ok)
	}
}

func TestFacadeModels(t *testing.T) {
	for _, m := range []Model{Queue(), Stack(), Set(), PQueue(), Counter(), Register(0), Consensus()} {
		if m.Name() == "" {
			t.Fatal("unnamed model")
		}
	}
	if m, ok := ModelByName("queue"); !ok || m.Name() != "queue" {
		t.Fatal("ModelByName broken")
	}
}

func TestFacadeVerifierLayers(t *testing.T) {
	drv := NewDRV(NewAtomicCounter(), 2)
	v := NewVerifier(drv, Linearizability(Counter()))
	if _, _, rep := v.Do(0, Operation{Method: "Inc", Uniq: 1}); rep != nil {
		t.Fatal("false error")
	}
}

func TestFacadeDecoupled(t *testing.T) {
	d := NewDecoupled(NewAtomicCounter(), 2, 1, Counter(), func(Report) {})
	d.Apply(0, Operation{Method: "Inc", Uniq: 1})
	d.Close()
}

func TestFacadeDecoupledRetention(t *testing.T) {
	reports := 0
	d := NewDecoupled(NewAtomicCounter(), 2, 2, Counter(),
		func(Report) { reports++ }, WithConfig(Config{Retain: true, Retention: RetentionPolicy{GCBatch: 1}}))
	for i := uint64(1); i <= 200; i++ {
		d.Apply(0, Operation{Method: "Inc", Uniq: i})
	}
	d.Close()
	if reports != 0 {
		t.Fatalf("false reports under retention: %d", reports)
	}
	if st := d.Stats(); st.Verify.Check.DiscardedEvents == 0 {
		t.Fatalf("retention idle: %+v", st)
	}
}

func TestFacadeFaultDetection(t *testing.T) {
	buggy := impls.NewFaulty(impls.NewMSQueue(), impls.PhantomValue, 2, 1)
	q := SelfEnforce(buggy, 1, Queue())
	var uniq trace.UniqSource
	gen := trace.NewOpGen("queue", 1, &uniq)
	for i := 0; i < 100; i++ {
		if _, rep := q.Apply(0, gen.Next()); rep != nil {
			if IsLinearizable(Queue(), rep.Witness) {
				t.Fatal("witness not a violation")
			}
			return
		}
	}
	t.Fatal("no detection")
}

// TestLinverifyTestdata exercises the offline-checker wire format end to end
// against the shipped sample histories.
func TestLinverifyTestdata(t *testing.T) {
	cases := map[string]bool{
		"cmd/linverify/testdata/queue-ok.json":  true,
		"cmd/linverify/testdata/queue-bad.json": false,
	}
	for path, want := range cases {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		h, err := history.DecodeJSON(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if got := IsLinearizable(Queue(), h); got != want {
			t.Fatalf("%s: linearizable = %v, want %v", path, got, want)
		}
	}
}
