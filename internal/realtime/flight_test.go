package realtime

import (
	"fmt"
	"testing"

	"rtopex/internal/flight"
	"rtopex/internal/phy"
)

// TestFlightRecorderCapturesArenaFailure arms the live runner's flight
// recorder and injects a receiver-arena failure: every dropped subframe is
// a trigger, and at least one arena-failure dossier must be captured with
// the live run's label and queue-depth snapshot.
func TestFlightRecorderCapturesArenaFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("live run is wall-clock bound")
	}
	withLender(t, func(*phy.Arena) phy.Lender { return failingLender{} })
	for _, depth := range []int{1, 2} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			spool, err := flight.NewSpool(flight.SpoolConfig{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			rec := flight.New(flight.Config{Spool: spool, MaxPerSec: -1, PostEvents: -1})
			const n = 5
			st, err := Run(Config{
				Basestations:  1,
				CoresPerBS:    2,
				Subframes:     n,
				Antennas:      1,
				SNRdB:         30,
				MCS:           0,
				Dilation:      20,
				Seed:          5,
				PipelineDepth: depth,
				Flight:        rec,
			})
			if err != nil {
				t.Fatal(err)
			}
			rec.Close()
			if st.Dropped != n {
				t.Fatalf("dropped %d, want all %d", st.Dropped, n)
			}
			if got := rec.Triggers(); got != n {
				t.Fatalf("recorder saw %d triggers, want %d", got, n)
			}
			if rec.Written() < 1 || spool.Len() < 1 {
				t.Fatalf("no dossiers captured (written %d, spooled %d)", rec.Written(), spool.Len())
			}
			d, err := flight.ReadDossierFile(spool.List()[0])
			if err != nil {
				t.Fatal(err)
			}
			if d.Trigger != flight.TriggerArenaFailure {
				t.Fatalf("trigger = %q, want %q", d.Trigger, flight.TriggerArenaFailure)
			}
			if d.Label != "realtime" {
				t.Fatalf("label = %q, want realtime", d.Label)
			}
			if d.Sched == nil || len(d.Sched.QueueDepths) == 0 {
				t.Fatalf("missing scheduler state snapshot: %+v", d.Sched)
			}
			if d.Runtime == nil {
				t.Fatal("missing runtime snapshot")
			}
		})
	}
}
