package mpi

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestRecvTolerantAnySource: a tolerant receive matches its tag from any
// source and reports the actual source and tag; Decode yields the payload.
// A message on another tag is left queued for a receive of that tag.
func TestRecvTolerantAnySource(t *testing.T) {
	w := NewWorld(3)
	errs := w.RunEach(func(c *Comm) error {
		switch c.Rank() {
		case 1:
			return c.Send(0, 7, 41)
		case 2:
			if err := c.Send(0, 9, 99); err != nil {
				return err
			}
			return c.Send(0, 7, 43)
		case 0:
			got := map[int]int{}
			epoch := c.FailureEpoch()
			for len(got) < 2 {
				msg, ep, err := c.RecvTolerant(context.Background(), 7, epoch, 5*time.Second)
				epoch = ep
				if err != nil {
					if errors.Is(err, ErrWorldChanged) {
						continue
					}
					return err
				}
				var v int
				if err := msg.Decode(&v); err != nil {
					return err
				}
				if msg.Tag != 7 {
					return fmt.Errorf("receive of tag 7 matched tag %d", msg.Tag)
				}
				got[msg.Src] = v
			}
			if got[1] != 41 || got[2] != 43 {
				return fmt.Errorf("payloads by source %v, want 41 from 1 and 43 from 2", got)
			}
			msg, _, err := c.RecvTolerant(context.Background(), 9, epoch, 0)
			if err != nil {
				return fmt.Errorf("the tag-9 message was not left queued: %w", err)
			}
			var v int
			if err := msg.Decode(&v); err != nil || msg.Src != 2 || v != 99 {
				return fmt.Errorf("tag 9: %d from rank %d (%v), want 99 from rank 2", v, msg.Src, err)
			}
		}
		return nil
	})
	for r, e := range errs {
		if e != nil {
			t.Fatalf("rank %d: %v", r, e)
		}
	}
}

// TestRecvTolerantQueuedMessageWinsOverEpoch: a frame sent before its
// sender died must still be delivered — queued messages take priority over
// the membership-change wakeup, which is reported on the *next* call.
func TestRecvTolerantQueuedMessageWinsOverEpoch(t *testing.T) {
	w := NewWorld(2)
	errs := w.RunEach(func(c *Comm) error {
		if c.Rank() == 1 {
			var go_ bool
			if _, err := c.Recv(0, 1, &go_); err != nil {
				return err
			}
			return c.Send(0, 5, "last words") // then exits: epoch bumps
		}
		// Capture the epoch strictly before rank 1 can die: its death is
		// gated on the go-signal sent next.
		epoch := c.FailureEpoch()
		if err := c.Send(1, 1, true); err != nil {
			return err
		}
		// Wait until rank 1 is gone so both the message and the epoch
		// change are pending simultaneously.
		deadline := time.Now().Add(5 * time.Second)
		for c.Alive(1) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		msg, ep, err := c.RecvTolerant(context.Background(), 5, epoch, time.Second)
		if err != nil {
			return fmt.Errorf("queued message lost to epoch wakeup: %w", err)
		}
		var s string
		if err := msg.Decode(&s); err != nil {
			return err
		}
		if s != "last words" {
			return fmt.Errorf("payload %q", s)
		}
		// Now the drained queue exposes the membership change.
		if _, ep2, err := c.RecvTolerant(context.Background(), 5, epoch, time.Second); !errors.Is(err, ErrWorldChanged) {
			return fmt.Errorf("want ErrWorldChanged after drain, got %v", err)
		} else if ep2 == epoch {
			return fmt.Errorf("epoch did not advance")
		} else {
			ep = ep2
		}
		// With the current epoch acknowledged, an empty world times out.
		if _, _, err := c.RecvTolerant(context.Background(), 5, ep, 30*time.Millisecond); !errors.Is(err, ErrTimeout) {
			return fmt.Errorf("want ErrTimeout, got %v", err)
		}
		return nil
	})
	for r, e := range errs {
		if e != nil {
			t.Fatalf("rank %d: %v", r, e)
		}
	}
}

// TestRecvTolerantEpochWakeupIsImmediate: a blocked tolerant receive must
// wake the moment a peer dies — no poll tick, no timeout wait.
func TestRecvTolerantEpochWakeupIsImmediate(t *testing.T) {
	w := NewWorld(2)
	boom := errors.New("boom")
	errs := w.RunEach(func(c *Comm) error {
		if c.Rank() == 1 {
			time.Sleep(50 * time.Millisecond)
			return boom
		}
		start := time.Now()
		_, _, err := c.RecvTolerant(context.Background(), 3, c.FailureEpoch(), 30*time.Second)
		if !errors.Is(err, ErrWorldChanged) {
			return fmt.Errorf("want ErrWorldChanged, got %v", err)
		}
		if wait := time.Since(start); wait > 5*time.Second {
			return fmt.Errorf("wakeup took %v — blocked until timeout, not event-driven", wait)
		}
		if failed := c.FailedRanks(); len(failed) != 1 || failed[0] != 1 {
			return fmt.Errorf("failed ranks %v, want [1]", failed)
		}
		if !errors.Is(c.RankFailure(1), ErrRankFailed) {
			return fmt.Errorf("RankFailure(1) = %v", c.RankFailure(1))
		}
		return nil
	})
	if !errors.Is(errs[1], boom) {
		t.Fatalf("rank 1: %v", errs[1])
	}
	if errs[0] != nil {
		t.Fatalf("rank 0: %v", errs[0])
	}
}

// TestRecvTolerantZeroTimeoutPolls: timeout 0 is a non-blocking poll. An
// empty mailbox reports ErrTimeout at once, a queued message is delivered,
// and a message under a tag outside the set stays queued for a later call.
func TestRecvTolerantZeroTimeoutPolls(t *testing.T) {
	polled, sent, hold := make(chan struct{}), make(chan struct{}), make(chan struct{})
	errs := NewWorld(2).RunEach(func(c *Comm) error {
		if c.Rank() == 1 {
			<-polled
			if err := c.Send(0, 3, 30); err != nil {
				return err
			}
			if err := c.Send(0, 2, 20); err != nil {
				return err
			}
			close(sent)
			<-hold // stay alive: no membership change while rank 0 polls
			return nil
		}
		defer close(hold)
		epoch := c.FailureEpoch()
		start := time.Now()
		if _, _, err := c.RecvTolerant(context.Background(), 2, epoch, 0); !errors.Is(err, ErrTimeout) {
			return fmt.Errorf("empty mailbox: want ErrTimeout, got %v", err)
		}
		if wait := time.Since(start); wait > time.Second {
			return fmt.Errorf("zero-timeout poll blocked for %v", wait)
		}
		close(polled)
		<-sent
		for _, want := range []struct{ tag, v int }{{2, 20}, {3, 30}} {
			msg, _, err := c.RecvTolerant(context.Background(), want.tag, epoch, 0)
			if err != nil {
				return fmt.Errorf("tag %d queued but not delivered: %w", want.tag, err)
			}
			var v int
			if err := msg.Decode(&v); err != nil {
				return err
			}
			if msg.Src != 1 || v != want.v {
				return fmt.Errorf("tag %d: got %d from rank %d", want.tag, v, msg.Src)
			}
			if want.tag == 2 {
				// Tag 3 is still queued, but outside the set.
				if _, _, err := c.RecvTolerant(context.Background(), 2, epoch, 0); !errors.Is(err, ErrTimeout) {
					return fmt.Errorf("tag 2 drained: want ErrTimeout, got %v", err)
				}
			}
		}
		return nil
	})
	for r, e := range errs {
		if e != nil {
			t.Fatalf("rank %d: %v", r, e)
		}
	}
}

// TestRecvTolerantPeerDeathDoesNotAbortWait: one peer's death wakes the
// wait with ErrWorldChanged, never ErrRankFailed, and a re-armed wait still
// receives the message another peer sends later.
func TestRecvTolerantPeerDeathDoesNotAbortWait(t *testing.T) {
	errs := NewWorld(3).RunEach(func(c *Comm) error {
		switch c.Rank() {
		case 1:
			return errors.New("injected death")
		case 2:
			time.Sleep(20 * time.Millisecond)
			return c.Send(0, 4, 7)
		}
		epoch := c.FailureEpoch()
		for {
			msg, ep, err := c.RecvTolerant(context.Background(), 4, epoch, 5*time.Second)
			epoch = ep
			if errors.Is(err, ErrWorldChanged) {
				continue
			}
			if err != nil {
				return err
			}
			var v int
			if err := msg.Decode(&v); err != nil {
				return err
			}
			if msg.Src != 2 || v != 7 {
				return fmt.Errorf("got %d from rank %d, want 7 from rank 2", v, msg.Src)
			}
			if got := c.FailedRanks(); len(got) != 1 || got[0] != 1 {
				return fmt.Errorf("FailedRanks %v, want [1]", got)
			}
			return nil
		}
	})
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("errs = %v", errs)
	}
}

// TestRecvTolerantCancelWakesBlockedWait: a wait with no bound and no
// traffic returns context.Canceled as soon as its context is cancelled;
// nothing polls for it.
func TestRecvTolerantCancelWakesBlockedWait(t *testing.T) {
	c := NewWorld(2).Comm(0)
	ctx, cancel := context.WithCancel(context.Background())
	at := make(chan time.Time, 1)
	go func() {
		time.Sleep(20 * time.Millisecond)
		at <- time.Now()
		cancel()
	}()
	_, _, err := c.RecvTolerant(ctx, 3, c.FailureEpoch(), -1)
	woke := time.Since(<-at)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if woke > 50*time.Millisecond {
		t.Fatalf("returned %v after cancel, want within 50ms", woke)
	}
}

// TestRecvTolerantQueuedMessageWinsOverCancel: a message already queued is
// delivered even under a cancelled context; only the empty mailbox reports
// the cancellation.
func TestRecvTolerantQueuedMessageWinsOverCancel(t *testing.T) {
	w := NewWorld(2)
	c := w.Comm(0)
	if err := w.Comm(1).Send(0, 5, 42); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	msg, _, err := c.RecvTolerant(ctx, 5, c.FailureEpoch(), -1)
	if err != nil {
		t.Fatalf("queued message not delivered under a cancelled context: %v", err)
	}
	var v int
	if err := msg.Decode(&v); err != nil || v != 42 {
		t.Fatalf("got %d (%v), want 42", v, err)
	}
	if _, _, err := c.RecvTolerant(ctx, 5, c.FailureEpoch(), -1); !errors.Is(err, context.Canceled) {
		t.Fatalf("empty mailbox: err = %v, want context.Canceled", err)
	}
}

// TestRecvTolerantContextDeadlineBeforeTimeout: a context deadline that
// comes before the timeout ends the wait as context.DeadlineExceeded, not
// as ErrTimeout.
func TestRecvTolerantContextDeadlineBeforeTimeout(t *testing.T) {
	c := NewWorld(2).Comm(0)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := c.RecvTolerant(ctx, 3, c.FailureEpoch(), 5*time.Second)
	if !errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want context.DeadlineExceeded and not ErrTimeout", err)
	}
	if wait := time.Since(start); wait > time.Second {
		t.Fatalf("waited %v for a 20ms context deadline", wait)
	}
}

// TestRecvTolerantRejectsNegativeTag pins the argument contract: a
// tolerant receive names one user tag, never a negative sentinel (which
// would collide with the internal collective tag space).
func TestRecvTolerantRejectsNegativeTag(t *testing.T) {
	w := NewWorld(1)
	errs := w.RunEach(func(c *Comm) error {
		_, _, err := c.RecvTolerant(context.Background(), -3, c.FailureEpoch(), time.Millisecond)
		if err == nil || errors.Is(err, ErrTimeout) {
			return fmt.Errorf("negative tag accepted: %v", err)
		}
		return nil
	})
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
}

// TestCollectiveFailureAttribution: Barrier, Bcast, and Allgather errors must
// identify which rank failed, extractable with FailedRank. Survivors stash
// their collective errors out-of-band (returning them from RunEach would
// mark the survivor itself failed and cascade the attribution).
func TestCollectiveFailureAttribution(t *testing.T) {
	boom := errors.New("boom")
	cases := []struct {
		name string
		run  func(c *Comm) error // executed by survivors; rank 2 dies
		// observers are the ranks guaranteed to attribute rank 2
		// first-hand (others may observe follow-on exits instead).
		observers []int
	}{
		{"barrier", func(c *Comm) error { return c.Barrier() }, []int{0}},
		{"bcast", func(c *Comm) error {
			v := 0
			return c.Bcast(2, &v) // root is the dead rank
		}, []int{0, 1, 3}},
		{"allgather", func(c *Comm) error {
			_, err := Allgather(c, c.Rank())
			return err
		}, []int{0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWorld(4)
			collected := make([]error, 4)
			errs := w.RunEach(func(c *Comm) error {
				if c.Rank() == 2 {
					return boom
				}
				collected[c.Rank()] = tc.run(c)
				return nil
			})
			if !errors.Is(errs[2], boom) {
				t.Fatalf("rank 2: %v", errs[2])
			}
			for _, r := range []int{0, 1, 3} {
				if errs[r] != nil {
					t.Fatalf("rank %d: %v", r, errs[r])
				}
			}
			for _, r := range tc.observers {
				e := collected[r]
				if e == nil {
					t.Fatalf("rank %d observed no failure", r)
				}
				if !errors.Is(e, ErrRankFailed) {
					t.Fatalf("rank %d: %v is not ErrRankFailed", r, e)
				}
				failed, ok := FailedRank(e)
				if !ok {
					t.Fatalf("rank %d: no rank identity in %v", r, e)
				}
				if failed != 2 {
					t.Fatalf("rank %d: attributed to rank %d, want 2 (%v)", r, failed, e)
				}
			}
		})
	}
}

// TestFailedRankOnLostSend: a send dropped past the retry budget carries
// the destination's identity, so callers can write off the right rank.
func TestFailedRankOnLostSend(t *testing.T) {
	w := NewWorld(2)
	w.SetInjector(dropAll{})
	errs := w.RunEach(func(c *Comm) error {
		if c.Rank() != 0 {
			time.Sleep(50 * time.Millisecond) // stay alive while 0 retries
			return nil
		}
		c.SetMaxSendRetries(1)
		err := c.Send(1, 4, 99)
		if !errors.Is(err, ErrMessageLost) {
			return fmt.Errorf("want ErrMessageLost, got %v", err)
		}
		if r, ok := FailedRank(err); !ok || r != 1 {
			return fmt.Errorf("lost send attributed to %d ok=%v, want rank 1", r, ok)
		}
		return nil
	})
	for r, e := range errs {
		if e != nil {
			t.Fatalf("rank %d: %v", r, e)
		}
	}
}

// dropAll drops every delivery attempt.
type dropAll struct{}

func (dropAll) SendVerdict(src, dst, tag, attempt, bytes int) SendVerdict {
	return SendVerdict{Drop: true}
}
