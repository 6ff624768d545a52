package monitorapi

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/spec"
	"repro/internal/trace"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	h := trace.RandomLinearizable(spec.Queue(), 7, 3, 60)
	data, err := EncodeHistory(h, "queue")
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, model, err := DecodeHistory(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if model != "queue" {
		t.Fatalf("model = %q, want queue", model)
	}
	if !reflect.DeepEqual(got, h) {
		t.Fatalf("round trip changed the history")
	}
}

func TestDecodeLegacyBareArray(t *testing.T) {
	legacy := `[
		{"kind":"inv","proc":1,"id":1,"op":"Enq","arg":5},
		{"kind":"ret","proc":1,"id":1,"op":"Enq","res":"ok"},
		{"kind":"inv","proc":2,"id":2,"op":"Deq"},
		{"kind":"ret","proc":2,"id":2,"op":"Deq","res":"5"}
	]`
	h, model, err := DecodeHistory([]byte(legacy))
	if err != nil {
		t.Fatalf("decode legacy: %v", err)
	}
	if model != "" {
		t.Fatalf("legacy form has no model, got %q", model)
	}
	if len(h) != 4 {
		t.Fatalf("len = %d, want 4", len(h))
	}
}

func TestDecodeRejectsNewerVersion(t *testing.T) {
	doc := `{"version": 99, "events": []}`
	if _, _, err := DecodeHistory([]byte(doc)); err == nil ||
		!strings.Contains(err.Error(), "newer") {
		t.Fatalf("want newer-version rejection, got %v", err)
	}
}

func TestDecodeRejectsMissingVersion(t *testing.T) {
	doc := `{"events": []}`
	if _, _, err := DecodeHistory([]byte(doc)); err == nil {
		t.Fatalf("want missing-version rejection, got nil")
	}
}

// Additive fields must not break old documents or old readers.
func TestDecodeToleratesUnknownFields(t *testing.T) {
	doc := `{"version": 1, "model": "queue", "recorded_at": "2026-08-08", "events": [
		{"kind":"inv","proc":1,"id":1,"op":"Enq","arg":1,"future_field":true},
		{"kind":"ret","proc":1,"id":1,"op":"Enq","res":"ok"}
	]}`
	h, model, err := DecodeHistory([]byte(doc))
	if err != nil {
		t.Fatalf("decode with unknown fields: %v", err)
	}
	if model != "queue" || len(h) != 2 {
		t.Fatalf("got model %q, %d events", model, len(h))
	}
}

func TestDecodeValidates(t *testing.T) {
	// A ret without its inv is not a well-formed complete history.
	doc := `{"version": 1, "events": [
		{"kind":"ret","proc":1,"id":1,"op":"Enq","res":"ok"}
	]}`
	if _, _, err := DecodeHistory([]byte(doc)); err == nil {
		t.Fatalf("want validation error, got nil")
	}
}

// The zero Config must serialise to an absent/empty object so that default
// opens stay minimal and old servers can add knobs without breaking clients.
func TestOpenZeroConfigOmitted(t *testing.T) {
	data, err := json.Marshal(ClientFrame{Type: FrameOpen, Open: &Open{
		Version: ProtocolVersion, Tenant: "t", Object: "o", Model: "queue",
	}})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "config") {
		t.Fatalf("zero Config serialised: %s", data)
	}
	var back ClientFrame
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Open.Config != (check.Config{}) {
		t.Fatalf("round trip changed the zero Config: %+v", back.Open.Config)
	}
}

func TestConfigRoundTrip(t *testing.T) {
	cfg := check.Config{
		Retain:      true,
		Retention:   check.RetentionPolicy{GCBatch: 8, CommitCuts: true},
		Parallelism: 4,
	}
	data, err := json.Marshal(Open{Version: 1, Tenant: "t", Object: "o", Model: "queue", Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	var back Open
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Config != cfg {
		t.Fatalf("config round trip: got %+v want %+v", back.Config, cfg)
	}
}

// TestOpenIgnoresRetiredPipelineField: an open frame from an older client may
// still carry the retired "pipeline" config knob. Decoders tolerate unknown
// fields, so it decodes to the Config without it — which is also what a
// reopen compares against the object's pinned Config.
func TestOpenIgnoresRetiredPipelineField(t *testing.T) {
	line := `{"type":"open","open":{"version":1,"tenant":"t","object":"o","model":"queue","config":{"retain":true,"pipeline":true}}}`
	var f ClientFrame
	if err := json.Unmarshal([]byte(line), &f); err != nil {
		t.Fatal(err)
	}
	if f.Open == nil || f.Open.Config != (check.Config{Retain: true}) {
		t.Fatalf("open decoded to %+v, want config {Retain: true}", f.Open)
	}
}

func TestParseVerdict(t *testing.T) {
	for _, v := range []check.Verdict{check.Yes, check.Maybe, check.No} {
		got, err := ParseVerdict(VerdictString(v))
		if err != nil || got != v {
			t.Fatalf("verdict %v: got %v, %v", v, got, err)
		}
	}
	if _, err := ParseVerdict("nope"); err == nil {
		t.Fatalf("want error for invalid verdict")
	}
}
