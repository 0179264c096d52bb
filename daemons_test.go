package streampca

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"streampca/internal/monitor"
	"streampca/internal/randproj"
)

// daemon is one running sketchpca binary: its stdout lines on a channel, its
// stderr kept whole.
type daemon struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	lines chan string

	mu     sync.Mutex
	stderr strings.Builder
	done   chan struct{} // closed once stderr is drained
}

func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	d := &daemon{cmd: exec.Command(bin, args...), lines: make(chan string, 256), done: make(chan struct{})}
	var err error
	if d.stdin, err = d.cmd.StdinPipe(); err != nil {
		t.Fatal(err)
	}
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = d.cmd.Process.Kill()
		_ = d.cmd.Wait()
	})
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			d.lines <- sc.Text()
		}
	}()
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			d.mu.Lock()
			d.stderr.WriteString(sc.Text() + "\n")
			d.mu.Unlock()
		}
	}()
	return d
}

// awaitStderr waits until the daemon's stderr matches re and returns the
// first submatch.
func (d *daemon) awaitStderr(t *testing.T, re *regexp.Regexp) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		d.mu.Lock()
		m := re.FindStringSubmatch(d.stderr.String())
		d.mu.Unlock()
		if m != nil {
			return m[len(m)-1]
		}
		time.Sleep(5 * time.Millisecond)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	t.Fatalf("%s: stderr never matched %v:\n%s", filepath.Base(d.cmd.Path), re, d.stderr.String())
	return ""
}

// stop interrupts the daemon, waits for it and returns its whole stderr.
func (d *daemon) stop(t *testing.T) string {
	t.Helper()
	if err := d.cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	<-d.done
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("%s: %v", filepath.Base(d.cmd.Path), err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stderr.String()
}

// decision waits for the NOC's decision line of interval iv.
func (d *daemon) decision(t *testing.T, iv int) string {
	t.Helper()
	tag := fmt.Sprintf(",interval=%d,", iv)
	for {
		select {
		case line := <-d.lines:
			if strings.Contains(line, tag) {
				return line
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("no NOC decision for interval %d", iv)
		}
	}
}

// TestDaemonsAdoptTheNOCsParameters runs the built daemons: sketchpca-noc
// states the parameters and self-checks every interval, and a
// sketchpca-monitor given only -noc, -id and -flows adopts them. Its decisions,
// fed in lockstep, equal those of a monitor built with every parameter
// pinned, which is what the monitor daemon built from its own flags before
// the NOC stated them.
func TestDaemonsAdoptTheNOCsParameters(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool to build the daemons with")
	}
	bin := t.TempDir()
	build := exec.Command(gobin, "build", "-o", bin+string(filepath.Separator), "./cmd/sketchpca-noc", "./cmd/sketchpca-monitor")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	const flows, intervals = 4, 24
	rng := rand.New(rand.NewSource(3))
	rows := make([][]float64, intervals)
	for i := range rows {
		base := 1000 + 100*rng.NormFloat64()
		rows[i] = make([]float64, flows)
		for f := range rows[i] {
			rows[i][f] = float64(f+1)*base + 10*rng.NormFloat64()
		}
	}
	// Spikes in turning directions, so the refresh cannot absorb them all
	// and the comparison covers alarms.
	for k := range 4 {
		rows[intervals-5+k][k%flows] += 5e4
		rows[intervals-5+k][(k+2)%flows] -= 3e4
	}
	startNOC := func() (*daemon, string) {
		noc := startDaemon(t, filepath.Join(bin, "sketchpca-noc"),
			"-listen", "127.0.0.1:0", "-flows", "4", "-window", "8", "-sketch", "6", "-seed", "5",
			"-selfcheck", "1", "-rank", "1")
		return noc, noc.awaitStderr(t, regexp.MustCompile(`listening on (\S+)`))
	}

	// The parameter-less monitor daemon, fed one CSV row per decision.
	noc, addr := startNOC()
	noc.awaitStderr(t, regexp.MustCompile(`oracle self-check (on)`))
	mon := startDaemon(t, filepath.Join(bin, "sketchpca-monitor"), "-noc", addr, "-id", "m", "-flows", "0,1,2,3")
	mon.awaitStderr(t, regexp.MustCompile(`adopted upstream parameters.* params="\{Family:randproj NumFlows:4 WindowLen:8 SketchLen:6 (Seed:5)\}"`))
	var adopted []string
	for i, row := range rows {
		cells := make([]string, len(row))
		for f, v := range row {
			cells[f] = fmt.Sprint(v)
		}
		if _, err := fmt.Fprintf(mon.stdin, "%d,%s\n", i, strings.Join(cells, ",")); err != nil {
			t.Fatal(err)
		}
		adopted = append(adopted, noc.decision(t, i+1))
	}
	_ = mon.stdin.Close()
	<-mon.done
	if err := mon.cmd.Wait(); err != nil {
		t.Fatalf("monitor: %v", err)
	}
	checks := regexp.MustCompile(`streampca_noc_oracle_checks_total=([1-9]\d*)`)
	if m := checks.FindStringSubmatch(noc.stop(t)); m == nil {
		t.Fatal("the NOC's checker checked nothing")
	}

	// The same feed through a monitor pinned to every parameter.
	noc, addr = startNOC()
	pinned, err := monitor.New(monitor.Config{
		ID: "m", FlowIDs: []int{0, 1, 2, 3}, WindowLen: 8,
		Sketch: randproj.Config{Seed: 5, SketchLen: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pinned.Close()
	if err := pinned.Connect(addr, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	var want []string
	for i, row := range rows {
		if err := pinned.ReportInterval(int64(i+1), row); err != nil {
			t.Fatal(err)
		}
		want = append(want, noc.decision(t, i+1))
	}
	noc.stop(t)
	if !slices.Equal(adopted, want) {
		t.Fatalf("decisions differ:\n adopted %q\n pinned  %q", adopted, want)
	}
	if !slices.ContainsFunc(want, func(l string) bool { return strings.HasPrefix(l, "ALARM") }) {
		t.Fatalf("no alarm in either run — the comparison is vacuous: %q", want)
	}
}
