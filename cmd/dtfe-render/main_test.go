package main

import (
	"bytes"
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
		cmd := rerun("TestBadFlagsExitWithUsage", "DTFE_RENDER_ARGS="+tc.args+io)
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

// TestRunPrintsSummary runs the command end to end on a small catalog
// written with particleio: every kernel on one rank, and the marching
// kernel sharded over two ranks, whose image must equal the one-rank
// image byte for byte. The test binary re-runs itself with DTFE_RENDER_RUN
// set to execute main.
func TestRunPrintsSummary(t *testing.T) {
	if args := os.Getenv("DTFE_RENDER_RUN"); args != "" {
		os.Args = append([]string{"dtfe-render"}, strings.Fields(args)...)
		main()
		return
	}
	dir := t.TempDir()
	in := filepath.Join(dir, "particles.dtfe")
	box := geom.AABB{Max: geom.Vec3{X: 1, Y: 1, Z: 1}}
	if err := particleio.Write(in, synth.HaloSet(2000, box, synth.DefaultHaloSpec(), 3), nil); err != nil {
		t.Fatal(err)
	}
	pgm := func(name string) string { return filepath.Join(dir, name+".pgm") }
	for _, tc := range []struct{ name, args string }{
		{"marching", "-kernel marching -samples 2"},
		{"walking", "-kernel walking -nz 16"},
		{"zeroorder", "-kernel zeroorder -nz 16"},
		{"ranks", "-ranks 2 -samples 2"},
	} {
		args := "-i " + in + " -grid 16 -workers 2 -o " + pgm(tc.name) + " " + tc.args
		out, err := rerun("TestRunPrintsSummary", "DTFE_RENDER_RUN="+args).CombinedOutput()
		if err != nil {
			t.Fatalf("%s: exit %v, want 0\n%s", tc.args, err, out)
		}
		if !strings.Contains(string(out), "wrote "+pgm(tc.name)+" (16x") {
			t.Fatalf("%s: no \"wrote\" summary:\n%s", tc.args, out)
		}
	}
	one, err := os.ReadFile(pgm("marching"))
	if err != nil {
		t.Fatal(err)
	}
	two, err := os.ReadFile(pgm("ranks"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one, two) {
		t.Fatal("the two-rank image differs from the one-rank image")
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
