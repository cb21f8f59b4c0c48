// Command dtfe-pipeline runs the full distributed framework over an
// in-process rank world: read particles, place field centers (on FOF halo
// members or line-of-sight stacks), partition with ghost zones, model the
// workload, build the work-sharing schedule, execute, and report phase
// times and imbalance.
//
// Usage:
//
//	dtfe-pipeline -i particles.dtfe -ranks 8 -fields 200 -fieldlen 0.1 -lb
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	"godtfe"
	"godtfe/internal/geom"
	"godtfe/internal/halo"
	"godtfe/internal/particleio"
	"godtfe/internal/render"
	"godtfe/internal/sched"
	"godtfe/internal/stats"
	"godtfe/internal/synth"
)

func main() {
	in := flag.String("i", "particles.dtfe", "input particle file")
	ranks := flag.Int("ranks", 8, "number of simulated MPI ranks")
	nFields := flag.Int("fields", 100, "number of surface-density fields")
	fieldLen := flag.Float64("fieldlen", 0.1, "field cube edge (box units)")
	gridN := flag.Int("grid", 64, "per-field grid resolution")
	config := flag.String("config", "halos", "field placement: halos | los | uniform")
	lb := flag.Bool("lb", true, "enable work-sharing load balance")
	periodic := flag.Bool("periodic", false, "wrap ghost zones across box faces")
	showSched := flag.Bool("schedule", false, "print the work-sharing schedule (paper Fig 4 style)")
	seed := flag.Int64("seed", 3, "random seed")
	ingest := flag.String("ingest", "fail", "invalid-particle policy: fail | drop | clamp")
	flag.Parse()
	if err := checkFlags(*ranks, *nFields, *gridN, *fieldLen, *config); err != nil {
		fmt.Fprintln(os.Stderr, "dtfe-pipeline:", err)
		flag.Usage()
		os.Exit(2)
	}

	policy, err := particleio.ParsePolicy(*ingest)
	if err != nil {
		log.Fatalf("ingest: %v", err)
	}
	// Sanitize at read time: a single NaN would otherwise poison the
	// bounding box and the whole decomposition below.
	pts, rep, err := particleio.ReadAllValidated(*in, particleio.ValidateOptions{Policy: policy})
	if err != nil {
		log.Fatalf("read: %v", err)
	}
	if !rep.Clean() {
		fmt.Printf("%v\n", rep)
	}
	box := geom.BoundsOf(pts)

	var centers []geom.Vec3
	switch *config {
	case "halos":
		var link float64
		var groups int
		centers, link, groups = haloCenters(pts, box, *nFields, *periodic)
		if len(centers) < *nFields {
			centers = append(centers, synth.Uniform(*nFields-len(centers), box, *seed)...)
		}
		fmt.Printf("placed %d fields on FOF halos (link=%.4g, %d groups)\n", len(centers), link, groups)
	case "los":
		planes := 8
		centers = synth.LineOfSightStacks((*nFields+planes-1)/planes, planes, box, *seed)
		fmt.Printf("placed %d fields on %d line-of-sight stacks\n", len(centers), (*nFields+planes-1)/planes)
	case "uniform":
		centers = synth.Uniform(*nFields, box, *seed)
	}

	results, err := godtfe.RunDistributed(*ranks, godtfe.PipelineConfig{
		Box:         box,
		FieldLen:    *fieldLen,
		GridN:       *gridN,
		LoadBalance: *lb,
		Periodic:    *periodic,
		Seed:        *seed,
		Ingest:      particleio.ValidateOptions{Policy: policy},
	}, pts, centers)
	if err != nil {
		log.Fatalf("pipeline: %v", err)
	}

	var compute []float64
	items, sent := 0, 0
	var ing particleio.IngestReport
	var cols render.OutcomeCounts
	for _, r := range results {
		fmt.Println(r)
		compute = append(compute, r.Phases.Triangulate+r.Phases.Render)
		items += len(r.Items)
		sent += r.Sent
		ing.Add(r.Ingest)
		cols.Add(r.Columns)
		for _, f := range r.Failures {
			fmt.Printf("  FAILED: %s\n", f)
		}
	}
	s := stats.Summarize(compute)
	fmt.Printf("\n%d fields over %d ranks (%d shipped); compute imbalance std/mean = %.3f\n",
		items, *ranks, sent, s.NormalizedStd())
	if !ing.Clean() {
		fmt.Printf("%v\n", ing)
	}
	fmt.Printf("columns: %v\n", cols)
	if *showSched {
		// Reconstruct the schedule the run would have built from the
		// measured per-rank compute times (Fig 4 of the paper).
		cl := sched.CreateCommunicationList(compute)
		fmt.Println("\nwork-sharing schedule over measured compute times:")
		fmt.Print(cl.TimelineText(compute, 48))
	}
}

// haloCenters returns the centres of the n largest friends-of-friends
// groups of at least 8 particles, linked at 0.2 mean separations, with the
// linking length and the group count. With periodic set the groups link
// through the faces of box, as the ghost zones then wrap: a group across a
// face is one group with one centre.
func haloCenters(pts []geom.Vec3, box geom.AABB, n int, periodic bool) ([]geom.Vec3, float64, int) {
	link := 0.2 * halo.MeanSeparation(pts)
	var halos []halo.Halo
	if periodic {
		halos = halo.FindPeriodic(pts, box, link, 8)
	} else {
		halos = halo.Find(pts, link, 8)
	}
	return halo.Centers(halos, n), link, len(halos)
}

// checkFlags rejects, before the catalog is read, the flag values the run
// cannot honour (halo.Centers would read -fields 0 as "every halo").
func checkFlags(ranks, fields, gridN int, fieldLen float64, config string) error {
	switch {
	case ranks < 1:
		return fmt.Errorf("-ranks %d: need at least one rank", ranks)
	case fields < 1:
		return fmt.Errorf("-fields %d: need at least one field", fields)
	case gridN < 1:
		return fmt.Errorf("-grid %d: need at least one column", gridN)
	case !(fieldLen > 0) || math.IsInf(fieldLen, 1):
		return fmt.Errorf("-fieldlen %v: need a positive, finite cube edge", fieldLen)
	case config != "halos" && config != "los" && config != "uniform":
		return fmt.Errorf("-config %q: want halos, los or uniform", config)
	}
	return nil
}
