package mpi

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// testInjector scripts verdicts per (src, dst, tag) key; dropN drops the
// first N attempts, delay postpones delivery.
type testInjector struct {
	dropN    map[[3]int]int
	delay    map[[3]int]time.Duration
	attempts atomic.Int64
}

func (in *testInjector) SendVerdict(src, dst, tag, attempt, bytes int) SendVerdict {
	in.attempts.Add(1)
	key := [3]int{src, dst, tag}
	if n, ok := in.dropN[key]; ok && attempt < n {
		return SendVerdict{Drop: true}
	}
	if d, ok := in.delay[key]; ok {
		return SendVerdict{Delay: d}
	}
	return SendVerdict{}
}

func TestFailedRankUnblocksRecv(t *testing.T) {
	boom := errors.New("boom")
	errs := NewWorld(3).RunEach(func(c *Comm) error {
		switch c.Rank() {
		case 1:
			return boom // dies before sending anything
		case 0:
			_, err := c.Recv(1, 7, new(int))
			if !errors.Is(err, ErrRankFailed) {
				return errors.New("rank 0: expected ErrRankFailed, got: " + errString(err))
			}
			return nil
		default:
			// Blocked in a collective with the dead rank: must not hang.
			if err := c.Barrier(); !errors.Is(err, ErrRankFailed) {
				return errors.New("rank 2: barrier should fail: " + errString(err))
			}
			return nil
		}
	})
	if !errors.Is(errs[1], boom) {
		t.Fatalf("rank 1 error = %v", errs[1])
	}
	for _, r := range []int{0, 2} {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
	}
}

func TestFinishedRankUnblocksRecv(t *testing.T) {
	// A rank that returns nil (done, not failed) must still unblock a
	// peer waiting on a message it will never send.
	errs := NewWorld(2).RunEach(func(c *Comm) error {
		if c.Rank() == 1 {
			return nil
		}
		_, err := c.Recv(1, 3, new(int))
		if !errors.Is(err, ErrRankFailed) {
			return errors.New("expected ErrRankFailed from exited rank: " + errString(err))
		}
		return nil
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestQueuedMessageOutlivesSender(t *testing.T) {
	// A message sent before the sender exits stays deliverable, like bytes
	// buffered in the interconnect.
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 1 {
			return c.Send(0, 5, 42)
		}
		time.Sleep(20 * time.Millisecond) // let rank 1 exit first
		var v int
		if _, err := c.Recv(1, 5, &v); err != nil {
			return err
		}
		if v != 42 {
			return errors.New("wrong payload")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAnySourcePerSourceOrdering(t *testing.T) {
	// AnySource must preserve each source's send order (FIFO per source),
	// deterministically, however the arrivals interleave.
	const per = 50
	err := Run(3, func(c *Comm) error {
		if c.Rank() != 0 {
			for i := 0; i < per; i++ {
				if err := c.Send(0, 6, c.Rank()*1000+i); err != nil {
					return err
				}
			}
			return nil
		}
		next := map[int]int{1: 0, 2: 0}
		for i := 0; i < 2*per; i++ {
			var v int
			src, err := c.Recv(AnySource, 6, &v)
			if err != nil {
				return err
			}
			if want := src*1000 + next[src]; v != want {
				return errors.New("out-of-order delivery within a source")
			}
			next[src]++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSizeOneCollectives(t *testing.T) {
	err := Run(1, func(c *Comm) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		got, err := Allgather(c, 13)
		if err != nil {
			return err
		}
		if len(got) != 1 || got[0] != 13 {
			return errors.New("bad size-1 allgather")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInjectedDropsAreRetried(t *testing.T) {
	w := NewWorld(2)
	inj := &testInjector{dropN: map[[3]int]int{{1, 0, 8}: 3}}
	w.SetInjector(inj)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			return c.Send(0, 8, 5)
		}
		var v int
		_, err := c.Recv(1, 8, &v)
		if err != nil || v != 5 {
			return errors.New("retried send not delivered: " + errString(err))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// 3 dropped attempts + 1 success.
	if got := inj.attempts.Load(); got != 4 {
		t.Fatalf("attempts = %d, want 4", got)
	}
}

func TestRetryExhaustionReportsMessageLost(t *testing.T) {
	w := NewWorld(2)
	w.SetInjector(&testInjector{dropN: map[[3]int]int{{0, 1, 8}: 1 << 30}})
	c := w.Comm(0)
	c.SetMaxSendRetries(2)
	err := c.Send(1, 8, 1)
	if !errors.Is(err, ErrMessageLost) {
		t.Fatalf("want ErrMessageLost, got %v", err)
	}
	if !strings.Contains(err.Error(), "3 attempts") {
		t.Fatalf("error should count attempts: %v", err)
	}
}

func TestDelayedMessageIsNotFailure(t *testing.T) {
	// A delayed (in-flight) message from a rank that has since exited must
	// still be delivered — the in-flight counter defers failure detection.
	w := NewWorld(2)
	w.SetInjector(&testInjector{delay: map[[3]int]time.Duration{{1, 0, 5}: 30 * time.Millisecond}})
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			return c.Send(0, 5, 9) // returns immediately; delivery is delayed
		}
		time.Sleep(5 * time.Millisecond) // rank 1 has exited by now
		var v int
		if _, err := c.Recv(1, 5, &v); err != nil {
			return err
		}
		if v != 9 {
			return errors.New("wrong payload")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrorContext(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 1 {
			return c.Send(0, 3, "not an int")
		}
		_, err := c.Recv(1, 3, new(int))
		if err == nil {
			return errors.New("type mismatch not reported")
		}
		msg := err.Error()
		for _, want := range []string{"from rank 1", "*int", "recv tag 3"} {
			if !strings.Contains(msg, want) {
				return errors.New("decode error lacks context (" + want + "): " + msg)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}
