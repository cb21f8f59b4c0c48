package main

import (
	"errors"
	"flag"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"godtfe/internal/geom"
	"godtfe/internal/particleio"
	"godtfe/internal/synth"
)

// TestHaloCentersPeriodic places fields on a catalog with one blob across
// the x = 0 face of the unit box: with -periodic it is one group whose
// centre lies within a linking length of that face, without it the face
// splits it in two.
func TestHaloCentersPeriodic(t *testing.T) {
	box := geom.AABB{Max: geom.Vec3{X: 1, Y: 1, Z: 1}}
	rng := rand.New(rand.NewSource(9))
	var pts []geom.Vec3
	for i := 0; i < 2000; i++ {
		pts = append(pts, geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()})
	}
	for i := 0; i < 200; i++ {
		x := 0.003 * rng.NormFloat64()
		pts = append(pts, geom.Vec3{
			X: x - math.Floor(x),
			Y: 0.5 + 0.003*rng.NormFloat64(),
			Z: 0.5 + 0.003*rng.NormFloat64(),
		})
	}

	centers, link, groups := haloCenters(pts, box, 4, true)
	if groups != 1 || len(centers) != 1 {
		t.Fatalf("periodic: %d groups, %d centres; want the blob as one", groups, len(centers))
	}
	if c := centers[0]; math.Min(c.X, 1-c.X) > link || !box.Contains(c) {
		t.Fatalf("periodic: centre %v is not within link %.4g of the x = 0 face", c, link)
	}
	if _, _, groups := haloCenters(pts, box, 4, false); groups != 2 {
		t.Fatalf("non-periodic: %d groups; want the blob split by the face", groups)
	}
}

// TestBadFlagsExitWithUsage runs the command on flag values it cannot run
// with and expects exit status 2 and the usage text before the catalog is
// read: the input path names no file, so a check that came after the read
// would fail with the read's exit status 1 instead. The test binary re-runs
// itself with DTFE_PIPELINE_ARGS set to execute main on those flags.
func TestBadFlagsExitWithUsage(t *testing.T) {
	if args := os.Getenv("DTFE_PIPELINE_ARGS"); args != "" {
		os.Args = append([]string{"dtfe-pipeline"}, strings.Fields(args)...)
		main()
		return
	}
	in := " -i " + filepath.Join(t.TempDir(), "missing.dtfe")
	for _, tc := range []struct{ args, want string }{
		{"-fields 0", "-fields 0"},
		{"-fields -3", "-fields -3"},
		{"-ranks 0", "-ranks 0"},
		{"-grid 0", "-grid 0"},
		{"-fieldlen 0", "-fieldlen 0"},
		{"-fieldlen NaN", "-fieldlen NaN"},
		{"-config bogus", `-config "bogus"`},
	} {
		cmd := rerun("TestBadFlagsExitWithUsage", "DTFE_PIPELINE_ARGS="+tc.args+in)
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("%s: exit %v, want status 2\n%s", tc.args, err, out)
			continue
		}
		if s := string(out); !strings.Contains(s, "dtfe-pipeline: "+tc.want) || !strings.Contains(s, "Usage of") || strings.Contains(s, "panic: ") {
			t.Errorf("%s: want the offending flag named, then usage, and no panic:\n%s", tc.args, s)
		}
	}
}

// TestRunPrintsSummary runs the command end to end on a small catalog
// written with particleio: two ranks, three uniformly placed fields. The
// test binary re-runs itself with DTFE_PIPELINE_RUN set to execute main.
func TestRunPrintsSummary(t *testing.T) {
	if args := os.Getenv("DTFE_PIPELINE_RUN"); args != "" {
		os.Args = append([]string{"dtfe-pipeline"}, strings.Fields(args)...)
		main()
		return
	}
	in := filepath.Join(t.TempDir(), "particles.dtfe")
	box := geom.AABB{Max: geom.Vec3{X: 1, Y: 1, Z: 1}}
	if err := particleio.Write(in, synth.Uniform(20000, box, 5), nil); err != nil {
		t.Fatal(err)
	}
	cmd := rerun("TestRunPrintsSummary", "DTFE_PIPELINE_RUN=-i "+in+" -ranks 2 -fields 3 -grid 8 -config uniform")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("exit %v, want 0\n%s", err, out)
	}
	if !strings.Contains(string(out), "3 fields over 2 ranks") {
		t.Fatalf("no \"3 fields over 2 ranks\" summary:\n%s", out)
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
