// Chaos test: the real fault injector (internal/fault) interposed on the
// runtime's send path, exercising retries, delayed deliveries and
// collectives concurrently. Lives in an external test package because
// fault imports mpi. Run with -race.
package mpi_test

import (
	"fmt"
	"testing"
	"time"

	"godtfe/internal/fault"
	"godtfe/internal/mpi"
)

func TestChaosCollectivesUnderDropsAndDelays(t *testing.T) {
	const (
		ranks  = 8
		rounds = 6
	)
	for seed := int64(1); seed <= 3; seed++ {
		w := mpi.NewWorld(ranks)
		w.SetInjector(fault.New(fault.Plan{
			Seed:      seed,
			DropProb:  0.3, // first 2 attempts of 30% of messages dropped
			DelayProb: 0.2,
			Delay:     2 * time.Millisecond,
		}))
		err := w.Run(func(c *mpi.Comm) error {
			me := c.Rank()
			for round := 0; round < rounds; round++ {
				// Point-to-point ring with distinct per-round tags.
				tag := 10 + round
				next := (me + 1) % ranks
				prev := (me + ranks - 1) % ranks
				if err := c.Send(next, tag, me*100+round); err != nil {
					return err
				}
				var got int
				if _, err := c.Recv(prev, tag, &got); err != nil {
					return err
				}
				if got != prev*100+round {
					return fmt.Errorf("round %d: ring got %d", round, got)
				}

				// Collectives must survive the same fault plan.
				all, err := mpi.Allgather(c, me)
				if err != nil {
					return err
				}
				for r, v := range all {
					if v != r {
						return fmt.Errorf("round %d: allgather[%d]=%d", round, r, v)
					}
				}
				vecs, err := mpi.Allgather(c, []float64{float64(me)})
				if err != nil {
					return err
				}
				for r, v := range vecs {
					if len(v) != 1 || v[0] != float64(r) {
						return fmt.Errorf("round %d: allgather of vectors [%d]=%v", round, r, v)
					}
				}
				send := make([]int, ranks)
				for i := range send {
					send[i] = me*1000 + i
				}
				recv, err := mpi.Alltoall(c, send)
				if err != nil {
					return err
				}
				for r, v := range recv {
					if v != r*1000+me {
						return fmt.Errorf("round %d: alltoall[%d]=%d", round, r, v)
					}
				}
				if err := c.Barrier(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestChaosDeterministicVerdicts(t *testing.T) {
	// The same plan must produce the same verdict sequence.
	mk := func() []mpi.SendVerdict {
		in := fault.New(fault.Plan{Seed: 42, DropProb: 0.4, DelayProb: 0.3, Delay: time.Millisecond})
		var vs []mpi.SendVerdict
		for msg := 0; msg < 40; msg++ {
			for attempt := 0; attempt < 3; attempt++ {
				vs = append(vs, in.SendVerdict(1, 2, 7, attempt, 100))
			}
		}
		return vs
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("verdict %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	drops := 0
	for _, v := range a {
		if v.Drop {
			drops++
		}
	}
	if drops == 0 {
		t.Fatal("plan with DropProb=0.4 never dropped")
	}
}
