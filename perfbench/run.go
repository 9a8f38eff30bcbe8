package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	runtimemetrics "runtime/metrics"
	"sync"
	"time"

	"repro/internal/metrics"
)

// runConfig is how one invocation runs its workload.
type runConfig struct {
	seconds float64 // measured time
	trace   bool
	spans   string // span dump path for traced runs ("" skips it)
	// stateDir holds each deployment's lifecycle state directory, which
	// its tear-down removes.
	stateDir string
	// tail is the minimum number of samples beyond a reported
	// percentile; minTail outside tests.
	tail int
	log  io.Writer
}

// Shares of the measured time in a traced run: the main phase, then the
// rate ladder; the absorb and refit probes take what they take.
const (
	mainShare    = 0.75
	ladderShare  = 0.2
	setupRuns    = 5    // deployments per untraced run; setup_s is their median
	ladderStart  = 2.0  // first ladder probe, as a multiple of the fixed rate
	ladderCoarse = 1.25 // rate ratio while bracketing the limit
	ladderRefine = 3    // bisections of the bracket: 1.25^(1/8), under 3%
	probeSecs    = 0.5  // ladder probe length
	maxProbes    = 10
	refitProbes  = 3 // quiet refits timed when the workload has no refit loop
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result of one workload run.
type outcome struct {
	metrics   map[string]metric
	order     []string // metric names in report order
	attempted int
	failed    int
	problems  []string // failed correctness checks
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = make(map[string]metric)
	}
	if _, dup := o.metrics[name]; !dup {
		o.order = append(o.order, name)
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// runWorkload runs one workload. An untraced run brings the workload up
// setupRuns times and drives each deployment through an equal share of
// the main phase; setup_s and the read latencies are medians over the
// deployments, so neither one slow bring-up nor one unlucky deployment
// (a Hogwild-trained model that embeds slower, a cold connection pool)
// sets the result. A traced run brings it up once and adds the phases
// the per-layer breakdown needs.
func runWorkload(ctx context.Context, spec workloadSpec, seed int64, cfg runConfig) (*outcome, error) {
	in, err := newInputs(spec, seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.log, "%s: %d buildings, %d held-out queries (seed %d)\n", spec.Name, len(in.corpora), len(in.queries), seed)
	out := &outcome{}
	if cfg.trace {
		err = runTraced(ctx, in, cfg, out)
	} else {
		err = runEndToEnd(ctx, in, cfg, out)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// runEndToEnd measures the end-to-end metrics.
func runEndToEnd(ctx context.Context, in *inputs, cfg runConfig, out *outcome) error {
	share := time.Duration(cfg.seconds * float64(time.Second) / setupRuns)
	var setups, p50s, heaps []float64
	// Replies are scored as each deployment ends, so no deployment's
	// peak heap holds the samples of the ones before it.
	conf := metrics.NewConfusion()
	for i := 0; i < setupRuns; i++ {
		// Each deployment starts from a collected heap, so neither its
		// bring-up nor its peak pays for the garbage of the one before.
		runtime.GC()
		peak := watchLiveHeap()
		r, setup, err := deploy(ctx, in, cfg, out, i, nil)
		if err != nil {
			peak()
			return err
		}
		samples, err := r.mainPhase(ctx, share)
		heap := float64(peak()) / (1 << 20)
		r.close()
		if err != nil {
			return err
		}
		rs := windowed(latencies(filter(samples, opRead)), cfg.tail)
		fmt.Fprintf(cfg.log, "deployment %d: setup %.3fs, peak live heap %.2fMiB, read p50 %.3fms p99 %.3fms over %d reads\n",
			i, setup.Seconds(), heap, rs.P50, rs.P99, rs.N)
		setups = append(setups, setup.Seconds())
		heaps = append(heaps, heap)
		p50s = append(p50s, rs.P50)
		score(conf, in, samples)
	}
	rep := conf.Compute()
	out.set("read_p50_ms", median(p50s), "ms")
	out.set("micro_f", rep.MicroF, "ratio")
	out.set("macro_f", rep.MacroF, "ratio")
	out.set("peak_heap_mib", median(heaps), "MiB")
	out.set("setup_s", median(setups), "s")
	if rep.MicroF < in.spec.MinMicroF {
		out.problem("micro_f %.4f below the frozen floor %.2f", rep.MicroF, in.spec.MinMicroF)
	}
	return nil
}

// runTraced measures the per-layer breakdown on one deployment.
func runTraced(ctx context.Context, in *inputs, cfg runConfig, out *outcome) error {
	r, _, err := deploy(ctx, in, cfg, out, 0, newTracer())
	if err != nil {
		return err
	}
	defer r.close()
	return r.measureTraced(ctx)
}

// watchLiveHeap samples the live heap, as the last collection measured
// it, every millisecond until the returned function is called; that
// function returns the highest value seen, in bytes. The live heap does
// not depend on when the collector happens to run, so its peak repeats
// from run to run where the peak of the allocated heap does not.
func watchLiveHeap() (stop func() uint64) {
	done := make(chan struct{})
	result := make(chan uint64, 1)
	go func() {
		s := []runtimemetrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		peak := uint64(0)
		for {
			runtimemetrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-done:
				result <- peak
				return
			case <-t.C:
			}
		}
	}()
	return func() uint64 {
		close(done)
		return <-result
	}
}

// calibrateWorkload brings the workload up and measures its closed-loop
// capacity for cfg.seconds.
func calibrateWorkload(ctx context.Context, spec workloadSpec, seed int64, cfg runConfig) (float64, error) {
	in, err := newInputs(spec, seed)
	if err != nil {
		return 0, err
	}
	r, _, err := deploy(ctx, in, cfg, &outcome{}, 0, nil)
	if err != nil {
		return 0, err
	}
	defer r.close()
	return r.calibrate(ctx, time.Duration(cfg.seconds*float64(time.Second)))
}

// runner is one deployment of a workload and the client driving it.
type runner struct {
	in  *inputs
	cfg runConfig
	out *outcome
	sys *system
	d   *driver
	tr  *tracer // nil in untraced runs
}

// deploy brings deployment i of the workload up and returns it with the
// time the bring-up took.
func deploy(ctx context.Context, in *inputs, cfg runConfig, out *outcome, i int, tr *tracer) (*runner, time.Duration, error) {
	start := time.Now()
	sys, err := bringUp(ctx, in, filepath.Join(cfg.stateDir, fmt.Sprintf("deployment-%d", i)), tr)
	if err != nil {
		return nil, 0, fmt.Errorf("bring-up: %w", err)
	}
	took := time.Since(start)
	return &runner{in: in, cfg: cfg, out: out, sys: sys, d: newDriver(in, sys.base, tr), tr: tr}, took, nil
}

func (r *runner) close() {
	r.d.close()
	if err := r.sys.close(); err != nil {
		fmt.Fprintf(r.cfg.log, "tear down: %v\n", err)
	}
}

// mainPhase offers the workload's request stream at its fixed rate for
// dur, with the refit loop running when the workload has one.
func (r *runner) mainPhase(ctx context.Context, dur time.Duration) ([]sample, error) {
	var loop *refitLoop
	if r.in.spec.RefitLoop {
		loop = r.startRefits(ctx)
	}
	samples, err := r.d.run(ctx, open(r.in.spec.Rate, dur, r.in.spec.AbsorbEvery), time.Now())
	if loop != nil {
		if _, lerr := loop.stop(); err == nil {
			err = lerr
		}
	}
	if err != nil {
		return nil, err
	}
	r.account(samples)
	r.checkAbsorbs(samples)
	return samples, nil
}

// measureTraced drives a shorter main phase with every absorb and every
// other read traced, then the rate ladder and the absorb and refit
// probes, and records the per-layer metrics.
func (r *runner) measureTraced(ctx context.Context) error {
	spec := r.in.spec
	total := time.Duration(r.cfg.seconds * float64(time.Second))
	before, err := scrape()
	if err != nil {
		return err
	}
	gcBefore := readGC()
	var loop *refitLoop
	if spec.RefitLoop {
		loop = r.startRefits(ctx)
	}
	fixed := open(spec.Rate, time.Duration(mainShare*float64(total)), spec.AbsorbEvery)
	// The untraced reads beside the traced ones measure what tracing
	// costs under the same load.
	fixed.traced = func(i int) bool { return fixed.absorb(i) || i%2 == 0 }
	fmt.Fprintf(r.cfg.log, "main: %d requests at %.0f/s\n", fixed.n, spec.Rate)
	samples, err := r.d.run(ctx, fixed, time.Now())
	gcAfter := readGC()
	var maxRPS float64
	if err == nil {
		r.account(samples)
		r.checkAbsorbs(samples)
		maxRPS, err = r.ladder(ctx, time.Duration(ladderShare*float64(total)))
	}
	var refits []float64
	if loop != nil {
		var lerr error
		if refits, lerr = loop.stop(); err == nil {
			err = lerr
		}
	}
	if err != nil {
		return err
	}
	// Absorb latency comes from the main phase when it holds enough
	// absorbs for a p99; otherwise from that many absorbs sent one at a
	// time to the now quiet node, as one crowd uploader would.
	absorbs := filter(samples, opAbsorb)
	if need := r.probeSize(); len(absorbs) < need {
		probe := schedule{n: need, absorb: func(int) bool { return true }, senders: 1, traced: func(int) bool { return true }}
		if absorbs, err = r.d.run(ctx, probe, time.Now()); err != nil {
			return err
		}
		r.account(absorbs)
		r.checkAbsorbs(absorbs)
	}
	if !spec.RefitLoop {
		for i := 0; i < refitProbes; i++ {
			d, err := r.sys.forceRefit(ctx, r.in.names[i%len(r.in.names)])
			r.out.attempted++
			if err != nil {
				r.out.failed++
				return err
			}
			refits = append(refits, d.Seconds())
		}
	}
	after, err := scrape()
	if err != nil {
		return err
	}
	var plain []sample
	for _, s := range filter(samples, opRead) {
		if !s.traced {
			plain = append(plain, s)
		}
	}
	rs := windowed(latencies(plain), r.cfg.tail)
	as := windowed(latencies(absorbs), r.cfg.tail)
	if !rs.HasP99 || !as.HasP99 {
		r.out.problem("read or absorb p99 rests on %d or %d samples", rs.N, as.N)
	}
	r.out.set("read_p99_ms", rs.P99, "ms")
	r.out.set("read_max_rps", maxRPS, "1/s")
	r.out.set("absorb_p50_ms", as.P50, "ms")
	r.out.set("absorb_p99_ms", as.P99, "ms")
	r.out.set("refit_s", median(refits), "s")
	return r.perLayer(ctx, samples, absorbs, delta(before, after), gcAfter.sub(gcBefore))
}

// calibrate drives the workload's request mix closed-loop, as fast as
// the senders get replies and with the refit loop running when the
// workload has one, and returns the completed requests per second. The
// frozen fixed rates are about 40% of this, measured once.
func (r *runner) calibrate(ctx context.Context, dur time.Duration) (float64, error) {
	var loop *refitLoop
	if r.in.spec.RefitLoop {
		loop = r.startRefits(ctx)
	}
	start := time.Now()
	done := 0
	var err error
	for err == nil && time.Since(start) < dur {
		var samples []sample
		if samples, err = r.d.run(ctx, schedule{n: 500, absorb: everyNth(r.in.spec.AbsorbEvery)}, time.Now()); err == nil {
			r.account(samples)
			done += len(samples)
		}
	}
	rps := float64(done) / time.Since(start).Seconds()
	if loop != nil {
		if _, lerr := loop.stop(); err == nil {
			err = lerr
		}
	}
	if err != nil {
		return 0, err
	}
	if r.out.failed > 0 {
		return 0, fmt.Errorf("%d of %d requests failed", r.out.failed, r.out.attempted)
	}
	return rps, nil
}

// probeSize is the number of samples a supported p99 needs: the size of
// every probe that must report one, and of the calibration probes.
func (r *runner) probeSize() int { return int(math.Ceil(float64(r.cfg.tail) / 0.01)) }

// account adds a phase's requests to the attempted and failed counts.
func (r *runner) account(samples []sample) {
	for i := range samples {
		r.out.attempted++
		if !samples[i].ok {
			r.out.failed++
		}
	}
}

// checkAbsorbs flags any successful absorb whose reply did not confirm a
// durable absorb.
func (r *runner) checkAbsorbs(samples []sample) {
	bad := 0
	for i := range samples {
		if s := &samples[i]; s.kind == opAbsorb && s.ok && !s.absorbed {
			bad++
		}
	}
	if bad > 0 {
		r.out.problem(`%d absorb(s) replied without "absorbed":true`, bad)
	}
}

// score adds every successful reply to c, against the held-out truth; a
// wrong building is a wrong floor.
func score(c *metrics.Confusion, in *inputs, samples []sample) {
	for i := range samples {
		s := &samples[i]
		if !s.ok {
			continue
		}
		q := &in.queries[s.id%len(in.queries)]
		c.Add(label(q.building, q.rec.Floor), label(s.building, s.floor))
	}
}

// ladder finds the highest rate of the workload's request mix at which
// the read p99 stays within the workload's limit with no growing backlog.
// Starting at ladderStart times the fixed rate it steps by ladderCoarse
// until one probe passes and its neighbour fails, then halves that
// bracket ladderRefine times, geometrically, and returns the highest
// passing rate. It stops early when budget or maxProbes runs out.
func (r *runner) ladder(ctx context.Context, budget time.Duration) (float64, error) {
	spec := r.in.spec
	deadline := time.Now().Add(budget)
	probes := 0
	// pass runs one probe at rate; ran is false when none was left.
	pass := func(rate float64) (ok, ran bool, err error) {
		if probes == maxProbes || time.Now().After(deadline) {
			return false, false, nil
		}
		probes++
		samples, err := r.d.run(ctx, open(rate, time.Duration(probeSecs*float64(time.Second)), spec.AbsorbEvery), time.Now())
		if err != nil {
			return false, false, err
		}
		r.account(samples)
		ok, p99 := probeHolds(samples, spec.P99LimitMS)
		fmt.Fprintf(r.cfg.log, "ladder: %.0f/s p99 %.2fms ok=%v\n", rate, p99, ok)
		return ok, true, nil
	}
	lo, hi := 0.0, 0.0 // highest passing and lowest failing rate so far
	rate := spec.Rate * ladderStart
	for hi == 0 || lo == 0 {
		ok, ran, err := pass(rate)
		if !ran {
			return lo, err
		}
		if ok {
			lo, rate = rate, rate*ladderCoarse
		} else {
			hi, rate = rate, rate/ladderCoarse
		}
		if lo > 0 && hi > 0 && hi < lo {
			break // a pass above a fail: the bracket is what it is
		}
	}
	for i := 0; i < ladderRefine && hi > lo; i++ {
		mid := math.Sqrt(lo * hi)
		ok, ran, err := pass(mid)
		if !ran {
			return lo, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// probeHolds reports whether a ladder probe kept every request
// successful, its read p99 within limitMS, and its backlog from growing:
// the mean queue wait of the probe's last quarter may not exceed that of
// its first quarter by more than half the limit.
func probeHolds(samples []sample, limitMS float64) (bool, float64) {
	for i := range samples {
		if !samples[i].ok {
			return false, math.Inf(1)
		}
	}
	s := summarize(latencies(filter(samples, opRead)), 0)
	q := len(samples) / 4
	if q == 0 {
		return s.P99 <= limitMS, s.P99
	}
	first, last := meanWait(samples[:q]), meanWait(samples[len(samples)-q:])
	return s.P99 <= limitMS && last-first <= limitMS/2, s.P99
}

func meanWait(samples []sample) float64 {
	sum := 0.0
	for i := range samples {
		sum += samples[i].queueWait()
	}
	return sum / float64(len(samples))
}

// refitLoop forces a refit of the next building, in turn, every
// refitPeriod (at once when the previous refit overran), in the
// background, until stopped. Pacing keeps the share of time under refit
// a property of the fit's speed: a faster fit leaves serving more of
// each period.
type refitLoop struct {
	done      chan struct{}
	wg        sync.WaitGroup
	mu        sync.Mutex
	stopped   bool
	durs      []float64
	attempted int
	failed    int
	err       error
	out       *outcome
}

// refitPeriod is how often refit-under-load starts a refit.
const refitPeriod = 2 * time.Second

func (r *runner) startRefits(ctx context.Context) *refitLoop {
	l := &refitLoop{done: make(chan struct{}), out: r.out}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		timer := time.NewTimer(0)
		defer timer.Stop()
		start := time.Now()
		for i := 0; ; i++ {
			select {
			case <-l.done:
				return
			case <-timer.C:
			}
			d, err := r.sys.forceRefit(ctx, r.in.names[i%len(r.in.names)])
			l.mu.Lock()
			l.attempted++
			if err != nil {
				l.failed++
				l.err = err
				l.mu.Unlock()
				return
			}
			if !l.stopped {
				l.durs = append(l.durs, d.Seconds())
			}
			l.mu.Unlock()
			timer.Reset(time.Until(start.Add(time.Duration(i+1) * refitPeriod)))
		}
	}()
	return l
}

// stop waits for the refit in flight and returns the durations of the
// refits that finished before stop was called; it adds the loop's
// refits to the run's attempted and failed counts.
func (l *refitLoop) stop() ([]float64, error) {
	l.mu.Lock()
	l.stopped = true
	l.mu.Unlock()
	close(l.done)
	l.wg.Wait()
	l.out.attempted += l.attempted
	l.out.failed += l.failed
	return l.durs, l.err
}

func filter(samples []sample, kind opKind) []sample {
	var out []sample
	for i := range samples {
		if samples[i].kind == kind {
			out = append(out, samples[i])
		}
	}
	return out
}

func latencies(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i := range samples {
		out[i] = samples[i].latency()
	}
	return out
}
