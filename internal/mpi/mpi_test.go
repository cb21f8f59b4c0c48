package mpi

import (
	"fmt"
	"sync/atomic"
	"testing"
)

func TestSendRecvBasic(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.rank == 0 {
			if err := c.Send(1, 7, []int{1, 2, 3}); err != nil {
				return err
			}
			return nil
		}
		var got []int
		src, err := c.Recv(0, 7, &got)
		if err != nil {
			return err
		}
		if src != 0 || len(got) != 3 || got[2] != 3 {
			return fmt.Errorf("got %v from %d", got, src)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvMatchesTagAndSource(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			if err := c.Send(2, 5, "from0"); err != nil {
				return err
			}
		case 1:
			if err := c.Send(2, 6, "from1"); err != nil {
				return err
			}
		case 2:
			// Receive tag 6 first even though tag 5 may arrive earlier.
			var a, b string
			if _, err := c.Recv(1, 6, &a); err != nil {
				return err
			}
			if _, err := c.Recv(AnySource, 5, &b); err != nil {
				return err
			}
			if a != "from1" || b != "from0" {
				return fmt.Errorf("a=%q b=%q", a, b)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestValueIsolation(t *testing.T) {
	// Receiver mutations must not leak back to the sender's slice.
	err := Run(2, func(c *Comm) error {
		data := []float64{1, 2, 3}
		if c.rank == 0 {
			if err := c.Send(1, 1, data); err != nil {
				return err
			}
			c.Barrier()
			if data[0] != 1 {
				return fmt.Errorf("sender data mutated: %v", data)
			}
			return nil
		}
		var got []float64
		if _, err := c.Recv(0, 1, &got); err != nil {
			return err
		}
		got[0] = 99
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgather(t *testing.T) {
	const n = 7
	err := Run(n, func(c *Comm) error {
		type pair struct{ R, V int }
		got, err := Allgather(c, pair{R: c.Rank(), V: c.Rank() * 10})
		if err != nil {
			return err
		}
		if len(got) != n {
			return fmt.Errorf("len=%d", len(got))
		}
		for r, p := range got {
			if p.R != r || p.V != r*10 {
				return fmt.Errorf("slot %d = %+v", r, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgatherRepeated(t *testing.T) {
	// Repeated collectives must not cross-match between rounds.
	err := Run(4, func(c *Comm) error {
		for round := 0; round < 20; round++ {
			got, err := Allgather(c, c.Rank()+round*100)
			if err != nil {
				return err
			}
			for r, v := range got {
				if v != r+round*100 {
					return fmt.Errorf("round %d slot %d = %d", round, r, v)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcast(t *testing.T) {
	err := Run(5, func(c *Comm) error {
		type msg struct {
			X    int
			Name string
		}
		var v msg
		if c.Rank() == 2 {
			v = msg{X: 42, Name: "root"}
		}
		if err := c.Bcast(2, &v); err != nil {
			return err
		}
		if v.X != 42 || v.Name != "root" {
			return fmt.Errorf("rank %d got %v", c.Rank(), v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierOrdering(t *testing.T) {
	var phase atomic.Int64
	const n = 8
	err := Run(n, func(c *Comm) error {
		phase.Add(1)
		c.Barrier()
		// After the barrier every rank must observe all n increments.
		if got := phase.Load(); got < n {
			return fmt.Errorf("rank %d saw phase %d before barrier release", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoall(t *testing.T) {
	const n = 5
	err := Run(n, func(c *Comm) error {
		send := make([]string, n)
		for i := range send {
			send[i] = fmt.Sprintf("%d->%d", c.Rank(), i)
		}
		got, err := Alltoall(c, send)
		if err != nil {
			return err
		}
		for src, s := range got {
			want := fmt.Sprintf("%d->%d", src, c.Rank())
			if s != want {
				return fmt.Errorf("from %d: %q want %q", src, s, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestByteAccounting(t *testing.T) {
	w := NewWorld(2)
	c0, c1 := w.Comm(0), w.Comm(1)
	done := make(chan error, 1)
	go func() {
		var v []byte
		_, err := c1.Recv(0, 3, &v)
		done <- err
	}()
	payload := make([]byte, 256)
	if err := c0.Send(1, 3, payload); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if c0.BytesSent() < 256 {
		t.Fatalf("bytes sent = %d, want >= 256", c0.BytesSent())
	}
	if w.TotalBytes() != c0.BytesSent() {
		t.Fatalf("world total %d != rank total %d", w.TotalBytes(), c0.BytesSent())
	}
	if w.TotalMessages() != 1 {
		t.Fatalf("messages = %d", w.TotalMessages())
	}
}

func TestErrorsPropagate(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 1 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
}

func TestInvalidArgs(t *testing.T) {
	w := NewWorld(1)
	c := w.Comm(0)
	if err := c.Send(0, -5, 1); err == nil {
		t.Error("negative tag accepted")
	}
	if err := c.Send(9, 1, 1); err == nil {
		t.Error("bad rank accepted")
	}
	if _, err := c.Recv(0, -1, new(int)); err == nil {
		t.Error("negative recv tag accepted")
	}
	if _, err := Alltoall(c, []int{1, 2}); err == nil {
		t.Error("bad alltoall length accepted")
	}
}

func TestManyRanksStress(t *testing.T) {
	// 64 ranks exchanging in a ring with collectives sprinkled in.
	const n = 64
	err := Run(n, func(c *Comm) error {
		next := (c.Rank() + 1) % n
		prev := (c.Rank() + n - 1) % n
		if err := c.Send(next, 9, c.Rank()); err != nil {
			return err
		}
		var got int
		if _, err := c.Recv(prev, 9, &got); err != nil {
			return err
		}
		if got != prev {
			return fmt.Errorf("ring got %d want %d", got, prev)
		}
		sums, err := Allgather(c, got)
		if err != nil {
			return err
		}
		if len(sums) != n {
			return fmt.Errorf("allgather len %d", len(sums))
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
