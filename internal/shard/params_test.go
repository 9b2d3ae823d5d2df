package shard

import (
	"strings"
	"testing"
	"time"

	"sacga/internal/fleet"
	"sacga/internal/sched"
	"sacga/internal/search"
)

// TestParamsNormalizeDefaults: the zero Params normalizes to the
// documented defaults. The ensemble knobs are sched.IslandsParams' own
// defaults, which a sharded run and its in-process twin must agree on for
// bit-identity; the liveness knobs give every run a lease and a heartbeat
// gap, so a worker that stops replying cannot hang its coordinator.
func TestParamsNormalizeDefaults(t *testing.T) {
	p := &Params{}
	ip, err := p.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if p.Replicas != 4 || p.Algo != "nsga2" || p.MigrationEvery != 10 || p.Migrants != 2 {
		t.Fatalf("ensemble defaults: %+v", p)
	}
	var want sched.IslandsParams
	want.Normalize()
	if ip.Replicas != want.Replicas || ip.Algo != want.Algo || ip.MigrationEvery != want.MigrationEvery || ip.Migrants != want.Migrants {
		t.Fatalf("ensemble params %+v, want sched's defaults %+v", ip, want)
	}
	if p.EpochDeadline != 5*time.Minute || p.HeartbeatTimeout != 15*time.Second {
		t.Fatalf("liveness defaults: lease %v, heartbeat gap %v; want 5m0s and 15s", p.EpochDeadline, p.HeartbeatTimeout)
	}

	set := &Params{Replicas: 3, EpochDeadline: time.Second, HeartbeatTimeout: 300 * time.Millisecond}
	if _, err := set.normalize(); err != nil {
		t.Fatal(err)
	}
	if set.Replicas != 3 || set.EpochDeadline != time.Second || set.HeartbeatTimeout != 300*time.Millisecond {
		t.Fatalf("explicit settings not kept: %+v", set)
	}
}

// TestParamsValidation: a negative lease or heartbeat gap fails loudly at
// normalize instead of silently degrading into spurious worker kills.
func TestParamsValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    Params
		want string
	}{
		{"negative deadline", Params{EpochDeadline: -time.Second}, "EpochDeadline"},
		{"negative heartbeat timeout", Params{HeartbeatTimeout: -1}, "HeartbeatTimeout"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.p.normalize()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("normalize() = %v, want error naming %q", err, tc.want)
			}
		})
	}
}

// TestPoolRequired: Params.Pool is a sharded run's only worker source, so
// Init and Restore without one, or with an empty one, fail with an error
// that names it — before any replica is built.
func TestPoolRequired(t *testing.T) {
	cp := &search.Checkpoint{Algo: NameShardedIslands, State: new(sched.IslandsSnapshot)}
	for _, tc := range []struct {
		name string
		pool *fleet.Pool
	}{
		{"nil", nil},
		{"empty", fleet.NewPool()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := poolOpts(tc.pool)
			for what, start := range map[string]func(search.Engine) error{
				"Init":    func(e search.Engine) error { return e.Init(zdt1Prob(t), opts) },
				"Restore": func(e search.Engine) error { return e.Restore(zdt1Prob(t), opts, cp) },
			} {
				err := start(new(Islands))
				if err == nil || !strings.Contains(err.Error(), "Params.Pool") {
					t.Fatalf("%s = %v, want an error naming Params.Pool", what, err)
				}
			}
		})
	}
}
