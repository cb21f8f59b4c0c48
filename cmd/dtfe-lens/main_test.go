package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"godtfe/internal/geom"
	"godtfe/internal/particleio"
	"godtfe/internal/synth"
)

// TestBadFlagsExitWithUsage runs the command on flag values it cannot
// analyse with and expects exit status 2 and the usage text before the
// catalog is read: the input path names no file, so a check that came
// after the read would fail with the read's exit status 1 instead. The
// test binary re-runs itself with DTFE_LENS_ARGS set to execute main on
// those flags.
func TestBadFlagsExitWithUsage(t *testing.T) {
	if args := os.Getenv("DTFE_LENS_ARGS"); args != "" {
		os.Args = append([]string{"dtfe-lens"}, strings.Fields(args)...)
		main()
		return
	}
	dir := t.TempDir()
	io := " -i " + filepath.Join(dir, "missing.dtfe") + " -outdir " + dir
	for _, tc := range []struct{ args, want string }{
		{"-grid 0", "-grid 0"},
		{"-grid -64", "-grid -64"},
		{"-grid 100", "-grid 100"},
		{"-sigmacrit -1", "-sigmacrit -1"},
		{"-sigmacrit NaN", "-sigmacrit NaN"},
		{"-sigmacrit +Inf", "-sigmacrit +Inf"},
		{"-sigmacrit -Inf", "-sigmacrit -Inf"},
		{"-workers 0", "-workers 0"},
		{"-workers -2", "-workers -2"},
		{"-ingest bogus", `-ingest "bogus"`},
		{"-ingest clamp", `-ingest "clamp"`},
	} {
		cmd := rerun("TestBadFlagsExitWithUsage", "DTFE_LENS_ARGS="+tc.args+io)
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("%s: exit %v, want status 2\n%s", tc.args, err, out)
			continue
		}
		if s := string(out); !strings.Contains(s, "dtfe-lens: "+tc.want) || !strings.Contains(s, "Usage of") || strings.Contains(s, "panic: ") {
			t.Errorf("%s: want the offending flag named, then usage, and no panic:\n%s", tc.args, s)
		}
	}
}

// TestRunPrintsSummary runs the command end to end on a small catalog
// written with particleio and expects its three maps. The test binary
// re-runs itself with DTFE_LENS_RUN set to execute main.
func TestRunPrintsSummary(t *testing.T) {
	if args := os.Getenv("DTFE_LENS_RUN"); args != "" {
		os.Args = append([]string{"dtfe-lens"}, strings.Fields(args)...)
		main()
		return
	}
	dir := t.TempDir()
	in := filepath.Join(dir, "particles.dtfe")
	box := geom.AABB{Max: geom.Vec3{X: 1, Y: 1, Z: 1}}
	if err := particleio.Write(in, synth.HaloSet(2000, box, synth.DefaultHaloSpec(), 3), nil); err != nil {
		t.Fatal(err)
	}
	out, err := rerun("TestRunPrintsSummary", "DTFE_LENS_RUN=-i "+in+" -grid 16 -workers 2 -outdir "+dir).CombinedOutput()
	if err != nil {
		t.Fatalf("exit %v, want 0\n%s", err, out)
	}
	for _, name := range []string{"sigma.pgm", "kappa.pgm", "magnification.pgm"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("%s not written: %v\n%s", name, err, out)
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
