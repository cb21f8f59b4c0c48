package main

import (
	"errors"
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
		cmd := exec.Command(os.Args[0], "-test.run=^TestBadFlagsExitWithUsage$")
		cmd.Env = append(os.Environ(), "DTFE_EXPERIMENTS_ARGS="+tc.args+" nosuchfig")
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
