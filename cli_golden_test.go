package repro

// CLI goldens: the stdout of `reproduce -class S -only all` (every paper
// table and extension) and of a representative nemo sweep, table and CSV,
// pinned in testdata/cli. The binaries are built from this checkout and
// run as a user would, so a refactor of the sweep pipeline, the runner or
// either command proves it changed no artifact. Regenerate after an
// intentional change with
//
//	go test -run 'TestArtifactGolden|TestNemoGolden' -update .

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// buildCmd compiles one of this module's commands into a temp dir and
// returns the binary's path.
func buildCmd(t *testing.T, name string) string {
	t.Helper()
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("the go command is needed to build cmd/%s: %v", name, err)
	}
	bin := filepath.Join(t.TempDir(), name)
	out, err := exec.Command(gobin, "build", "-o", bin, "./cmd/"+name).CombinedOutput()
	if err != nil {
		t.Fatalf("go build ./cmd/%s: %v\n%s", name, err, out)
	}
	return bin
}

// runCmd runs bin and returns its stdout, failing the test on a non-zero
// exit.
func runCmd(t *testing.T, bin string, args ...string) []byte {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %s: %v\n%s", filepath.Base(bin), strings.Join(args, " "), err, stderr.Bytes())
	}
	return stdout.Bytes()
}

// The profiling line carries a wall time, and both status lines carry the
// worker count, which follows the host's CPU count; everything else
// reproduce prints is deterministic. The rewrite matches the benchmark
// harness's, so the two pins agree on what may vary.
var (
	profiledLine = regexp.MustCompile(`(?m)^\(profiled (\d+) codes x (\d+) settings in [0-9.]+s wall on \d+ workers\)$`)
	engineLine   = regexp.MustCompile(`(?m)^\(sweep engine: (\d+) simulations run, (\d+) cache hits, \d+ workers\)$`)
)

func normaliseReproduce(out []byte) []byte {
	out = profiledLine.ReplaceAll(out, []byte("(profiled $1 codes x $2 settings in <t>s wall on <n> workers)"))
	return engineLine.ReplaceAll(out, []byte("(sweep engine: $1 simulations run, $2 cache hits, <n> workers)"))
}

func TestArtifactGolden(t *testing.T) {
	out := runCmd(t, buildCmd(t, "reproduce"), "-class", "S", "-only", "all")
	checkGolden(t, "cli/reproduce-S-all.golden", string(normaliseReproduce(out)))
}

func TestNemoGolden(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "nemo.csv")
	out := runCmd(t, buildCmd(t, "nemo"),
		"-codes", "FT,CG", "-classes", "S", "-ranks", "4,8", "-freqs", "all", "-auto", "-csv", csv)
	checkGolden(t, "cli/nemo.golden", strings.ReplaceAll(string(out), csv, "<csv>"))
	b, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "cli/nemo.csv.golden", string(b))
}
