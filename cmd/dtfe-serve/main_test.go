package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestBadFlagsExitWithUsage runs the command on flag values it cannot serve
// with and expects exit status 2 and the usage text before any work starts,
// not a panic or an error from deep inside the run. The test binary re-runs
// itself with DTFE_SERVE_ARGS set to execute main on those flags.
func TestBadFlagsExitWithUsage(t *testing.T) {
	if args := os.Getenv("DTFE_SERVE_ARGS"); args != "" {
		os.Args = append([]string{"dtfe-serve"}, strings.Fields(args)...)
		main()
		return
	}
	for _, tc := range []struct{ args, want string }{
		{"-specs 0", "-specs 0"},
		{"-workers 0", "-workers 0"},
		{"-grid 1 -overlap 0.5", "-grid 1"},
		{"-grid 0", "-grid 0"},
		{"-grid -3", "-grid -3"},
		{"-requests 0", "-requests 0"},
		{"-requests -5", "-requests -5"},
		{"-rate -1", "-rate -1"},
		{"-rate NaN", "-rate NaN"},
		{"-rate +Inf", "-rate +Inf"},
		{"-rate 1e-12", "-rate 1e-12"},
		{"-overlap 1.5", "-overlap 1.5"},
		{"-overlap -0.1", "-overlap -0.1"},
		{"-cancel-prob 2", "-cancel-prob 2"},
		{"-slow-prob -1", "-slow-prob -1"},
		{"-overlap 0.5 -overlap-families 0", "-overlap-families 0"},
		{"-queue -1", "-queue -1"},
		{"-col-cache -1", "-col-cache -1"},
		{"-updates -3", "-updates -3"},
		{"-particles 3", "-particles 3"},
	} {
		cmd := rerun("TestBadFlagsExitWithUsage", "DTFE_SERVE_ARGS="+tc.args)
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("%s: exit %v, want status 2\n%s", tc.args, err, out)
			continue
		}
		if s := string(out); !strings.Contains(s, "dtfe-serve: "+tc.want) || !strings.Contains(s, "Usage of") || strings.Contains(s, "panic: ") {
			t.Errorf("%s: want the offending flag named, then usage, and no panic:\n%s", tc.args, s)
		}
	}
}

// TestRunPrintsSummary runs the command end to end on a small synthetic
// catalog: an open-loop load with overlapping families, one concurrent
// catalog update, cancellations and slow clients. The test binary re-runs
// itself with DTFE_SERVE_RUN set to execute main.
func TestRunPrintsSummary(t *testing.T) {
	if args := os.Getenv("DTFE_SERVE_RUN"); args != "" {
		os.Args = append([]string{"dtfe-serve"}, strings.Fields(args)...)
		main()
		return
	}
	cmd := rerun("TestRunPrintsSummary", "DTFE_SERVE_RUN=-particles 2000 -grid 16 -requests 200 -overlap 0.5 -updates 1 -cancel-prob 0.05 -slow-prob 0.05")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("exit %v, want 0\n%s", err, out)
	}
	for _, want := range []string{" failed 0\n", "updates: 1 applied"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("no %q in the summary:\n%s", want, out)
		}
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
