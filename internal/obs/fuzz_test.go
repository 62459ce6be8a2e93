package obs

import (
	"bytes"
	"io"
	"testing"
)

// FuzzDecodeWire drives the collector's wire boundary with arbitrary bytes:
// DecodeWire must never panic, an envelope it accepts must re-encode and
// decode again, and ingesting it — next to a real source — must leave the
// merge, its exposition and a history tick panic-free. The seed corpus
// (testdata/fuzz/FuzzDecodeWire) holds an encoded live-run snapshot and an
// envelope that names one series as two kinds.
func FuzzDecodeWire(f *testing.F) {
	reg := NewRegistry()
	reg.Counter("x_total", L("shard", "1")).Add(7)
	reg.Histogram("h_seconds").Observe(0.25)
	real := &WireSnapshot{Version: WireVersion, Source: Source{ID: "real"}, Seq: 1, Snapshot: reg.Snapshot()}
	f.Fuzz(func(t *testing.T, in []byte) {
		ws, err := DecodeWire(bytes.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := EncodeWire(&out, ws); err != nil {
			t.Fatalf("accepted envelope does not re-encode: %v", err)
		}
		if _, err := DecodeWire(&out); err != nil {
			t.Fatalf("re-encoded envelope does not decode: %v", err)
		}
		col := NewCollector(CollectorConfig{})
		if _, err := col.Ingest(real); err != nil {
			t.Fatal(err)
		}
		if _, err := col.Ingest(ws); err != nil {
			t.Fatalf("decoded envelope rejected by Ingest: %v", err)
		}
		_ = col.MergedRegistry().WriteProm(io.Discard)
		col.Merged()
		NewFleetHistory(col, FleetHistoryConfig{}).Tick()
	})
}
