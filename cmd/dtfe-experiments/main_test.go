package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestBadFlagsExitWithUsage runs the command on a -scale outside (0, 1]
// and expects exit status 2 and the usage text before any figure runs:
// the figure named is unknown, so a check that came after the figure
// lookup would exit without the usage text instead. The test binary
// re-runs itself with DTFE_EXPERIMENTS_ARGS set to execute main on those
// flags.
func TestBadFlagsExitWithUsage(t *testing.T) {
	if args := os.Getenv("DTFE_EXPERIMENTS_ARGS"); args != "" {
		os.Args = append([]string{"dtfe-experiments"}, strings.Fields(args)...)
		main()
		return
	}
	for _, tc := range []struct{ args, want string }{
		{"-scale 0", "-scale 0"},
		{"-scale -1", "-scale -1"},
		{"-scale 5", "-scale 5"},
		{"-scale NaN", "-scale NaN"},
		{"-scale +Inf", "-scale +Inf"},
	} {
		cmd := rerun("TestBadFlagsExitWithUsage", "DTFE_EXPERIMENTS_ARGS="+tc.args+" nosuchfig")
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("%s: exit %v, want status 2\n%s", tc.args, err, out)
			continue
		}
		if s := string(out); !strings.Contains(s, "dtfe-experiments: "+tc.want) || !strings.Contains(s, "Usage of") || strings.Contains(s, "panic: ") {
			t.Errorf("%s: want the offending flag named, then usage, and no panic:\n%s", tc.args, s)
		}
	}
}

// TestRunPrintsSummary runs the command end to end on one small figure
// (fig8 at 2% scale: a marching and a zero-order map of one catalog) and
// expects its report. The test binary re-runs itself with
// DTFE_EXPERIMENTS_RUN set to execute main.
func TestRunPrintsSummary(t *testing.T) {
	if args := os.Getenv("DTFE_EXPERIMENTS_RUN"); args != "" {
		os.Args = append([]string{"dtfe-experiments"}, strings.Fields(args)...)
		main()
		return
	}
	out, err := rerun("TestRunPrintsSummary", "DTFE_EXPERIMENTS_RUN=-scale 0.02 -artifacts "+t.TempDir()+" fig8").CombinedOutput()
	if err != nil {
		t.Fatalf("exit %v, want 0\n%s", err, out)
	}
	if !strings.Contains(string(out), "== fig8:") {
		t.Fatalf("no fig8 report:\n%s", out)
	}
}

// rerun starts this test binary again on the one test named, with env
// added to its environment; the test then runs main as the command. Under
// go test -cover it passes on the coverage directory, so a child whose
// test returns counts its lines too (one that main ends with os.Exit
// already writes them through the inherited GOCOVERDIR).
func rerun(test string, env ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], "-test.run=^"+test+"$")
	cmd.Env = append(os.Environ(), env...)
	if f := flag.Lookup("test.gocoverdir"); f != nil && f.Value.String() != "" {
		cmd.Args = append(cmd.Args, "-test.gocoverdir="+f.Value.String())
	}
	return cmd
}
