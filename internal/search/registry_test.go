package search

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// stubEngine is a registry placeholder; the registry never calls into it.
type stubEngine struct{ Engine }

type stubParams struct{ Knob int }

// registryRuns numbers the registry tests' runs: Register panics on a
// duplicate name, so each run (go test -count=N) registers its own names.
var registryRuns atomic.Int64

func TestRegisteredListsExtensionTypes(t *testing.T) {
	run := registryRuns.Add(1)
	extName := fmt.Sprintf("registry-test-ext-%d", run)
	plainName := fmt.Sprintf("registry-test-plain-%d", run)
	Register(extName, func() Engine { return stubEngine{} })
	Register(plainName, func() Engine { return stubEngine{} })
	RegisterExtension(extName, func() any { return new(stubParams) })

	var withExt, plain *EngineInfo
	infos := Registered()
	for i := range infos {
		switch infos[i].Name {
		case extName:
			withExt = &infos[i]
		case plainName:
			plain = &infos[i]
		}
	}
	if withExt == nil || plain == nil {
		t.Fatalf("Registered() missing test entries: %v", infos)
	}
	if withExt.Extension != "*search.stubParams" {
		t.Errorf("extension type = %q, want *search.stubParams", withExt.Extension)
	}
	if plain.Extension != "" {
		t.Errorf("extension-less engine reports %q", plain.Extension)
	}
	for i := 1; i < len(infos); i++ {
		if infos[i-1].Name >= infos[i].Name {
			t.Fatalf("Registered() not sorted: %q >= %q", infos[i-1].Name, infos[i].Name)
		}
	}

	if extra, ok := NewExtra(extName); !ok {
		t.Error("NewExtra must find the registered extension")
	} else if _, isParams := extra.(*stubParams); !isParams {
		t.Errorf("NewExtra returned %T, want *stubParams", extra)
	}
	// Each call must mint a fresh value: decoding one request's params into
	// a shared prototype would leak state between jobs.
	a, _ := NewExtra(extName)
	b, _ := NewExtra(extName)
	if a.(*stubParams) == b.(*stubParams) {
		t.Error("NewExtra returned a shared value")
	}
	if _, ok := NewExtra(plainName); ok {
		t.Error("NewExtra must report no extension for a plain engine")
	}
}

// The job server hits the registry from concurrent request handlers while
// the admission path mints extension values; everything behind registryMu
// must be race-free (run under -race in CI).
func TestRegistryConcurrentAccess(t *testing.T) {
	run := registryRuns.Add(1)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 200; i++ {
				switch i % 5 {
				case 0:
					Names()
				case 1:
					Registered()
				case 2:
					NewExtra("registry-conc-0")
				case 3:
					if _, err := New("no-such-engine"); err == nil {
						t.Error("unknown engine must error")
					}
				case 4:
					if i == 4 { // one unique registration per goroutine
						name := fmt.Sprintf("registry-conc-%d-%d", run, g)
						Register(name, func() Engine { return stubEngine{} })
						RegisterExtension(name, func() any { return new(stubParams) })
					}
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
}
