package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestSmokeBinaries drives the built cmd/sacgad binary the way an operator
// does: submit two jobs plus a duplicate over HTTP, watch the stream,
// SIGTERM the server mid-run, restart it on the same state directory, and
// check the resumed job's front is bit-identical (to the CSV's printed
// precision) to an uninterrupted cmd/sacga run of the same configuration.
// Both servers run every turn under the per-turn watchdog (-step-timeout),
// which must change nothing for turns that finish in time.
func TestSmokeBinaries(t *testing.T) {
	if testing.Short() {
		t.Skip("binary smoke test skipped in -short mode")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	tmp := t.TempDir()
	sacgadBin := filepath.Join(tmp, "sacgad")
	sacgaBin := filepath.Join(tmp, "sacga")
	for bin, pkg := range map[string]string{sacgadBin: "sacga/cmd/sacgad", sacgaBin: "sacga/cmd/sacga"} {
		cmd := exec.Command(goBin, "build", "-o", bin, pkg)
		cmd.Dir = "../.." // module root
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", pkg, err, out)
		}
	}
	stateDir := filepath.Join(tmp, "state")

	// Job A is sized to outlive the SIGTERM; job B finishes before it.
	jobA := `{"problem":{"name":"zdt1"},"engine":"nsga2","options":{"pop_size":150,"generations":1200,"seed":9}}`
	jobB := `{"problem":{"name":"zdt2"},"engine":"nsga2","options":{"pop_size":32,"generations":40,"seed":10}}`

	srv1, base1 := startSacgad(t, sacgadBin, stateDir)
	idA := submitJob(t, base1, jobA, http.StatusCreated, false)
	idB := submitJob(t, base1, jobB, http.StatusCreated, false)
	if dup := submitJob(t, base1, jobA, http.StatusOK, true); dup != idA {
		t.Fatalf("duplicate submission got id %s, want %s", dup, idA)
	}

	watchFrames(t, base1, idA, 2)
	waitJobGen(t, base1, idA, 20)
	waitJobState(t, base1, idB, StateDone)

	if err := srv1.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	if code := waitExit(t, srv1); code != 3 {
		t.Fatalf("drained server exited %d, want 3 (jobs interrupted)", code)
	}

	srv2, base2 := startSacgad(t, sacgadBin, stateDir)
	defer func() {
		srv2.Process.Signal(syscall.SIGTERM)
		waitExit(t, srv2)
	}()
	// Job B's terminal result is replayed from disk, not re-run.
	if state := jobResult(t, base2, idB, 10*time.Second).State; state != StateDone {
		t.Fatalf("replayed job B state %s", state)
	}
	resumed := jobResult(t, base2, idA, 120*time.Second)
	if resumed.State != StateDone {
		t.Fatalf("resumed job A state %s (err %q)", resumed.State, resumed.Error)
	}

	// The uninterrupted reference: the same configuration through cmd/sacga
	// (-algo tpg is the registry's nsga2 with no extension params).
	csvPath := filepath.Join(tmp, "front.csv")
	ref := exec.Command(sacgaBin, "-problem", "zdt1", "-algo", "tpg",
		"-pop", "150", "-iters", "1200", "-seed", "9", "-out", csvPath)
	if out, err := ref.CombinedOutput(); err != nil {
		t.Fatalf("reference sacga run: %v\n%s", err, out)
	}
	rows := readFrontCSV(t, csvPath)
	if len(rows) != len(resumed.Front) {
		t.Fatalf("front size: sacgad %d vs sacga %d", len(resumed.Front), len(rows))
	}
	for i, p := range resumed.Front {
		got := make([]string, 0, len(p.Objectives)+1)
		for _, o := range p.Objectives {
			got = append(got, strconv.FormatFloat(o, 'g', 10, 64))
		}
		got = append(got, strconv.FormatFloat(p.Violation, 'g', 10, 64))
		if want := rows[i]; !equalStrings(got, want) {
			t.Fatalf("front point %d differs from uninterrupted cmd/sacga run:\n  sacgad %v\n  sacga  %v", i, got, want)
		}
	}
}

// startSacgad launches the daemon and returns its process and base URL,
// parsed from the "serving on" stderr line.
func startSacgad(t *testing.T, bin, dir string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-dir", dir, "-slots", "2", "-checkpoint-every", "5",
		"-step-timeout", "1m")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatalf("stderr pipe: %v", err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start sacgad: %v", err)
	}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if _, after, ok := strings.Cut(line, "serving on "); ok {
				addrc <- strings.Fields(after)[0]
			}
		}
	}()
	select {
	case addr := <-addrc:
		return cmd, "http://" + addr
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("sacgad never reported its listen address")
		return nil, ""
	}
}

func submitJob(t *testing.T, base, body string, wantStatus int, wantDeduped bool) string {
	t.Helper()
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	var sub SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatalf("submit response: %v", err)
	}
	if resp.StatusCode != wantStatus || sub.Deduped != wantDeduped {
		t.Fatalf("submit: status %d deduped %v, want %d/%v", resp.StatusCode, sub.Deduped, wantStatus, wantDeduped)
	}
	return sub.ID
}

// watchFrames reads the SSE stream until n frame events arrive.
func watchFrames(t *testing.T, base, id string, n int) {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id + "/stream")
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	frames := 0
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "event: frame") {
			if frames++; frames >= n {
				return
			}
		}
	}
	t.Fatalf("stream ended after %d frames, wanted %d (%v)", frames, n, sc.Err())
}

func getJob(t *testing.T, base, id string) JobView {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	defer resp.Body.Close()
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("status decode: %v", err)
	}
	return v
}

func waitJobGen(t *testing.T, base, id string, gen int) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		v := getJob(t, base, id)
		if v.Gen >= gen {
			return
		}
		if v.State.Terminal() {
			t.Fatalf("job %s ended (%s) before gen %d", id, v.State, gen)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached gen %d", id, gen)
}

func waitJobState(t *testing.T, base, id string, want State) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if v := getJob(t, base, id); v.State == want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %s", id, want)
}

// jobResult polls /result until the job is terminal (409 while running).
func jobResult(t *testing.T, base, id string, timeout time.Duration) ResultView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/jobs/" + id + "/result")
		if err != nil {
			t.Fatalf("result: %v", err)
		}
		if resp.StatusCode == http.StatusOK {
			var res ResultView
			err := json.NewDecoder(resp.Body).Decode(&res)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("result decode: %v", err)
			}
			return res
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("result: unexpected status %d", resp.StatusCode)
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("job %s result not ready within %v", id, timeout)
	return ResultView{}
}

func waitExit(t *testing.T, cmd *exec.Cmd) int {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		var xe *exec.ExitError
		if err == nil {
			return 0
		}
		if ok := errorsAs(err, &xe); ok {
			return xe.ExitCode()
		}
		t.Fatalf("wait: %v", err)
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		t.Fatal("sacgad did not exit after SIGTERM")
	}
	return -1
}

// errorsAs avoids importing errors alongside the test's other helpers.
func errorsAs(err error, target **exec.ExitError) bool {
	xe, ok := err.(*exec.ExitError)
	if ok {
		*target = xe
	}
	return ok
}

// readFrontCSV parses cmd/sacga's front CSV into rows of formatted cells
// (header skipped).
func readFrontCSV(t *testing.T, path string) [][]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read csv: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 1 {
		t.Fatal("empty csv")
	}
	rows := make([][]string, 0, len(lines)-1)
	for _, line := range lines[1:] {
		rows = append(rows, strings.Split(line, ","))
	}
	return rows
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
