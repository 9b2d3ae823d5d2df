package fleet

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestSmokeFleetBinaries is the end-to-end fleet story exactly as an
// operator runs it: build the real cmd/sacgaw and cmd/sacga binaries,
// start one worker daemon on a loopback port, run the sharded
// optimization over the pools cmd/sacga builds — the daemon alone
// (-fleet), two worker processes of its own (-shard 2) and both mixed —
// and require each front CSV to be cell-for-cell identical to the same
// run executed in-process. Then SIGTERM the daemon and require a clean
// exit.
func TestSmokeFleetBinaries(t *testing.T) {
	if testing.Short() {
		t.Skip("binary smoke test: skipped in -short")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH")
	}
	tmp := t.TempDir()
	sacgaw := filepath.Join(tmp, "sacgaw")
	sacga := filepath.Join(tmp, "sacga")
	for bin, pkg := range map[string]string{sacgaw: "./cmd/sacgaw", sacga: "./cmd/sacga"} {
		cmd := exec.Command(goBin, "build", "-o", bin, pkg)
		cmd.Dir = "../.."
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}

	daemon := exec.Command(sacgaw, "-addr", "127.0.0.1:0")
	stderr, err := daemon.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		daemon.Process.Kill()
		daemon.Wait()
	})
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "sacgaw: serving on "); ok {
				addr <- rest
			}
		}
	}()
	var workerAddr string
	select {
	case workerAddr = <-addr:
	case <-time.After(30 * time.Second):
		t.Fatal("sacgaw never announced its listen address")
	}

	base := []string{"-problem", "zdt1", "-algo", "parislands", "-pop", "24", "-iters", "16", "-seed", "7"}
	run := func(extra ...string) [][]string {
		t.Helper()
		out := filepath.Join(t.TempDir(), "front.csv")
		args := append(append([]string{}, base...), "-out", out)
		args = append(args, extra...)
		cmd := exec.Command(sacga, args...)
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("sacga %v: %v\n%s", args, err, msg)
		}
		return readCSV(t, out)
	}
	want := run()
	for _, pool := range [][]string{
		{"-fleet", workerAddr},
		{"-shard", "2"},
		{"-shard", "2", "-fleet", workerAddr},
	} {
		got := run(pool...)
		if len(got) == 0 {
			t.Fatalf("%v: empty front", pool)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%v: sharded front differs from in-process run:\nsharded: %v\nsolo:    %v", pool, got, want)
		}
	}

	// Clean shutdown: SIGTERM → exit 0.
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- daemon.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("sacgaw exited non-zero on SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sacgaw did not exit on SIGTERM")
	}
}

// readCSV splits a front CSV into rows of cells, keeping the textual
// float cells verbatim — the comparison is bit-identity, not tolerance.
func readCSV(t *testing.T, path string) [][]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		rows = append(rows, strings.Split(line, ","))
	}
	return rows
}
