package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"sync/atomic"
	"time"
)

// The host reference. The benchmark runs on a few cores of a shared host
// whose speed for real code moves by tens of per cent over seconds (a
// neighbour on the sibling hardware thread costs high-throughput code up to
// 40%; a dependent chain such as an xorshift loop does not notice, which is
// why a plain CPU canary misses it). A wall-clock time therefore says as
// much about the neighbours as about the program. So a second process of
// this binary (-hostref) times a fixed arithmetic kernel every 10 ms for
// the whole run, and every gated time is stated at the speed of the
// reference host: wall × (refNominal ÷ kernel time while it ran)^refExponent.
// The kernel calls nothing in the repository, so a later change cannot move
// it. It is a process of its own so that the measured program keeps the one
// compute thread the workloads are defined with; both processes are pinned
// to one CPU (pinToOneCPU), so the kernel takes 3% of the very hardware
// thread the program computes on and times that thread, not its neighbour.

// refReps fixes the kernel: refReps sweeps of four independent
// multiply-add chains over an array that stays in the first-level cache.
const refReps = 400

// refNominal is what one pass of the kernel takes on the quiet reference
// host, in seconds. It fixes the unit of the normalised times only.
const refNominal = 0.00028

// refExponent is how strongly the repository's code follows the kernel:
// when the kernel runs x times slower, a build or a march runs about
// x^refExponent slower (fitted per block on the reference host, pinned:
// 0.75–0.96 over the six workloads).
const refExponent = 0.8

// refEvery is the sampling period.
const refEvery = 10 * time.Millisecond

func refPass(a *[2048]float64) time.Duration {
	t0 := time.Now()
	var a0, a1, a2, a3 float64
	for r := 0; r < refReps; r++ {
		for i := 0; i < len(a); i += 4 {
			a0 += a[i]*1.0001 + 0.5
			a1 += a[i+1]*0.9999 - 0.25
			a2 += a[i+2] * a[i]
			a3 += a[i+3] * a[i+1]
		}
	}
	probeSink += uint64(a0 + a1 + a2 + a3)
	return time.Since(t0)
}

// hostRefMain is the sampling process: it writes "ready", then takes one
// pass every refEvery until standard input closes (the parent is done, or
// gone) or three minutes have passed; then it writes one line per pass,
// "start duration" in nanoseconds with start counted from "ready", and
// exits. Counting from a line both processes see keeps the two on their
// monotonic clocks: the wall clock of a virtual machine may step.
func hostRefMain() {
	var closed atomic.Bool
	go func() {
		io.Copy(io.Discard, os.Stdin) //nolint:errcheck // any end of input means stop
		closed.Store(true)
	}()
	var a [2048]float64
	for i := range a {
		a[i] = float64(i%97) / 97
	}
	type sample struct{ at, dur time.Duration }
	samples := make([]sample, 0, 1<<15)
	start := time.Now()
	fmt.Println("ready")
	for !closed.Load() && time.Since(start) < 3*time.Minute {
		at := time.Since(start)
		samples = append(samples, sample{at, refPass(&a)})
		time.Sleep(refEvery)
	}
	w := bufio.NewWriter(os.Stdout)
	for _, s := range samples {
		fmt.Fprintf(w, "%d %d\n", s.at.Nanoseconds(), s.dur.Nanoseconds())
	}
	w.Flush() //nolint:errcheck // the parent checks what it could read
}

// sampler is the running -hostref process.
type sampler struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
	start time.Time // when the process said "ready"
}

func startSampler() (*sampler, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	s := &sampler{cmd: exec.Command(exe, "-hostref")}
	s.cmd.Stderr = os.Stderr
	if s.stdin, err = s.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting the host-reference process: %w", err)
	}
	s.out = bufio.NewReader(stdout)
	line, err := s.out.ReadString('\n')
	s.start = time.Now()
	if err != nil || line != "ready\n" {
		s.stdin.Close()
		s.cmd.Wait() //nolint:errcheck // reporting the failed start instead
		return nil, fmt.Errorf("host-reference process said %q, not ready: %v", line, err)
	}
	return s, nil
}

// stop ends the process, waits for it and returns its samples.
func (s *sampler) stop() (*hostSpeed, error) {
	s.stdin.Close()
	h := &hostSpeed{start: s.start}
	sc := bufio.NewScanner(s.out)
	for sc.Scan() {
		var at, dur int64
		if _, err := fmt.Sscanf(sc.Text(), "%d %d", &at, &dur); err != nil {
			s.cmd.Wait() //nolint:errcheck // reporting the unreadable sample instead
			return nil, fmt.Errorf("host-reference sample %q: %w", sc.Text(), err)
		}
		h.at = append(h.at, time.Duration(at))
		h.dur = append(h.dur, float64(dur)/1e9)
	}
	if err := s.cmd.Wait(); err != nil {
		return nil, fmt.Errorf("host-reference process: %w", err)
	}
	if len(h.at) == 0 {
		return nil, fmt.Errorf("host-reference process took no sample")
	}
	// A pass that lost its processor part-way reads ten times a quiet one.
	// Passes are clipped at three times the run's fast end: a busy sibling
	// thread costs the kernel 1.6×, so what lies beyond 3× is scheduling,
	// and without the clip a handful of such passes moves a block's mean.
	limit := 3 * percentile(h.dur, 0.1)
	for i, d := range h.dur {
		h.dur[i] = math.Min(d, limit)
	}
	return h, nil
}

// hostSpeed is a run's reference samples in time order.
type hostSpeed struct {
	start time.Time       // the instant the samples' starts count from
	at    []time.Duration // start of each pass
	dur   []float64       // seconds
}

// refTime is the mean kernel time over the samples taken between t0 and
// t1 (one sampling period either side, so that a short interval has some).
func (h *hostSpeed) refTime(t0, t1 time.Time) float64 {
	from, to := t0.Sub(h.start)-refEvery, t1.Sub(h.start)+refEvery
	lo := sort.Search(len(h.at), func(i int) bool { return h.at[i] >= from })
	hi := sort.Search(len(h.at), func(i int) bool { return h.at[i] > to })
	if lo >= hi {
		return median(h.dur)
	}
	var sum float64
	for _, d := range h.dur[lo:hi] {
		sum += d
	}
	return sum / float64(hi-lo)
}

// over is the host's speed for the repository's code between t0 and t1
// relative to the reference host: 1 at refNominal, below 1 when the host
// ran slower. A time multiplied by it, or a rate divided by it, is stated
// at reference speed.
func (h *hostSpeed) over(t0, t1 time.Time) float64 {
	return math.Pow(refNominal/h.refTime(t0, t1), refExponent)
}

// spreadFrac is (p90 − p10) ÷ median over the run's samples: how much the
// host's speed moved during the run.
func (h *hostSpeed) spreadFrac() float64 {
	m := median(h.dur)
	if m == 0 {
		return 0
	}
	return (percentile(h.dur, 0.9) - percentile(h.dur, 0.1)) / m
}
