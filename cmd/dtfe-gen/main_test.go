package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"godtfe/internal/particleio"
)

// TestBadFlagsExitWithUsage runs the command on flag values it cannot
// generate or write a catalog with and expects exit status 2 and the usage
// text before anything is generated, not a panic, a late write error or a
// file of NaN or inverted-box particles. The test binary re-runs itself
// with DTFE_GEN_ARGS set to execute main on those flags.
func TestBadFlagsExitWithUsage(t *testing.T) {
	if args := os.Getenv("DTFE_GEN_ARGS"); args != "" {
		os.Args = append([]string{"dtfe-gen"}, strings.Fields(args)...)
		main()
		return
	}
	out := filepath.Join(t.TempDir(), "p.dtfe")
	for _, tc := range []struct{ args, want string }{
		{"-n -5", "-n -5"},
		{"-n 0", "-n 0"},
		{"-box 0", "-box 0"},
		{"-box -1", "-box -1"},
		{"-box NaN", "-box NaN"},
		{"-box +Inf", "-box +Inf"},
		{"-kind pm -steps -1", "-steps -1"},
		{"-kind pm -dt 0", "-dt 0"},
		{"-kind pm -mesh 48", "-mesh 48"},
		{"-kind pm -mesh 0", "-mesh 0"},
		{"-kind pm -blocks 0", "-blocks 0"},
		{"-kind bogus", `-kind "bogus"`},
	} {
		cmd := rerun("TestBadFlagsExitWithUsage", "DTFE_GEN_ARGS="+tc.args+" -o "+out)
		got, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("%s: exit %v, want status 2\n%s", tc.args, err, got)
			continue
		}
		if s := string(got); !strings.Contains(s, "dtfe-gen: "+tc.want) || !strings.Contains(s, "Usage of") || strings.Contains(s, "panic: ") {
			t.Errorf("%s: want the offending flag named, then usage, and no panic:\n%s", tc.args, s)
		}
		if _, err := os.Stat(out); err == nil {
			t.Fatalf("%s: wrote %s", tc.args, out)
		}
	}
}

// TestRunPrintsSummary runs the command end to end: a small halo catalog is
// generated, written and read back. The test binary re-runs itself with
// DTFE_GEN_RUN set to execute main.
func TestRunPrintsSummary(t *testing.T) {
	if args := os.Getenv("DTFE_GEN_RUN"); args != "" {
		os.Args = append([]string{"dtfe-gen"}, strings.Fields(args)...)
		main()
		return
	}
	path := filepath.Join(t.TempDir(), "p.dtfe")
	out, err := rerun("TestRunPrintsSummary", "DTFE_GEN_RUN=-kind halos -n 500 -blocks 2 -o "+path).CombinedOutput()
	if err != nil {
		t.Fatalf("exit %v, want 0\n%s", err, out)
	}
	if !strings.Contains(string(out), "wrote 500 particles (halos)") {
		t.Fatalf("no \"wrote 500 particles (halos)\" summary:\n%s", out)
	}
	if pts, err := particleio.ReadAll(path); err != nil || len(pts) != 500 {
		t.Fatalf("read back %d particles, err %v", len(pts), err)
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
