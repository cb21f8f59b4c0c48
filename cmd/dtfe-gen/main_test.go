package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
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
		cmd := exec.Command(os.Args[0], "-test.run=^TestBadFlagsExitWithUsage$")
		cmd.Env = append(os.Environ(), "DTFE_GEN_ARGS="+tc.args+" -o "+out)
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
