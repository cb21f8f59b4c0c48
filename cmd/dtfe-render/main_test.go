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
// render with and expects exit status 2 and the usage text before the
// catalog is read: the input path names no file, so a check that came
// after the read would fail with the read's exit status 1 instead. The
// test binary re-runs itself with DTFE_RENDER_ARGS set to execute main on
// those flags.
func TestBadFlagsExitWithUsage(t *testing.T) {
	if args := os.Getenv("DTFE_RENDER_ARGS"); args != "" {
		os.Args = append([]string{"dtfe-render"}, strings.Fields(args)...)
		main()
		return
	}
	dir := t.TempDir()
	io := " -i " + filepath.Join(dir, "missing.dtfe") + " -o " + filepath.Join(dir, "sigma.pgm")
	for _, tc := range []struct{ args, want string }{
		{"-grid 0", "-grid 0"},
		{"-kernel bogus", `-kernel "bogus"`},
		{"-samples -3", "-samples -3"},
		{"-workers -1", "-workers -1"},
		{"-ranks -2", "-ranks -2"},
		{"-ranks 0", "-ranks 0"},
		{"-tiles -1", "-tiles -1"},
		{"-nz -3 -kernel zeroorder", "-nz -3"},
		{"-deadline -1s -ranks 2", "-deadline -1s"},
		{"-ranks 2 -v", "-ranks > 1"},
		{"-ranks 2 -kernel walking", "-ranks > 1"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestBadFlagsExitWithUsage$")
		cmd.Env = append(os.Environ(), "DTFE_RENDER_ARGS="+tc.args+io)
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("%s: exit %v, want status 2\n%s", tc.args, err, out)
			continue
		}
		if s := string(out); !strings.Contains(s, "dtfe-render: "+tc.want) || !strings.Contains(s, "Usage of") || strings.Contains(s, "panic: ") {
			t.Errorf("%s: want the offending flag named, then usage, and no panic:\n%s", tc.args, s)
		}
	}
}
