package shard

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestParamsNormalizeDefaults: the zero Params normalizes to the
// documented defaults — the knobs a sharded run and its in-process twin
// must agree on for bit-identity.
func TestParamsNormalizeDefaults(t *testing.T) {
	p := &Params{}
	if err := p.normalize(); err != nil {
		t.Fatal(err)
	}
	if p.Replicas != 4 || p.Algo != "nsga2" || p.MigrationEvery != 10 || p.Migrants != 2 {
		t.Fatalf("ensemble defaults: %+v", p)
	}
	if want := min(4, runtime.GOMAXPROCS(0)); p.Procs != want {
		t.Fatalf("procs default %d, want %d", p.Procs, want)
	}
	if p.Retries != 2 {
		t.Fatalf("retries default %d, want 2", p.Retries)
	}
	if p.HeartbeatEvery != 0 {
		t.Fatalf("HeartbeatEvery default %v, want 0 (worker's own default)", p.HeartbeatEvery)
	}
}

// TestParamsValidation: nonsensical liveness configurations fail loudly at
// normalize instead of silently degrading into spurious worker kills.
func TestParamsValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    Params
		want string
	}{
		{"negative deadline", Params{EpochDeadline: -time.Second}, "EpochDeadline"},
		{"negative heartbeat timeout", Params{HeartbeatTimeout: -1}, "HeartbeatTimeout"},
		{"negative heartbeat period", Params{HeartbeatEvery: -1}, "HeartbeatEvery"},
		{"period at heartbeat timeout", Params{HeartbeatEvery: time.Second, HeartbeatTimeout: time.Second}, "shorter than HeartbeatTimeout"},
		{"period at epoch deadline", Params{HeartbeatEvery: 5 * time.Second, EpochDeadline: 5 * time.Second}, "shorter than EpochDeadline"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.p.normalize()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("normalize() = %v, want error naming %q", err, tc.want)
			}
		})
	}
	ok := Params{HeartbeatEvery: 100 * time.Millisecond, HeartbeatTimeout: time.Second, EpochDeadline: time.Minute}
	if err := ok.normalize(); err != nil {
		t.Fatalf("valid liveness configuration rejected: %v", err)
	}
}
