package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"
)

// closedLoop is a workload driven by one caller that issues op i+1 only
// after op i returned.
type closedLoop interface {
	// setup builds the state the ops run against, replacing any earlier
	// state, so that op 0 finds the system exactly as a fresh start would.
	setup(ctx context.Context, tr *tracer) error
	// limit bounds the number of ops (0 = unbounded).
	limit() int
	// prepare builds op i's input; it runs outside the timed region.
	prepare(i int, tr *tracer) error
	// op runs op i, keeping what verify needs.
	op(ctx context.Context, i int, tr *tracer) error
	// verify checks op i's output against the oracle; it runs outside
	// the timed region.
	verify(i int) error
}

// opTimeout bounds one op, so that a pathological input fails its op
// instead of hanging the run.
const opTimeout = 10 * time.Second

// pass is one closed-loop run over consecutive ops from op 0.
type pass struct {
	lats   []time.Duration
	busy   time.Duration // op time: the sum of lats
	cpu    time.Duration // process CPU time during ops
	rt     rtStats       // runtime growth during ops
	lags   []time.Duration
	failed int
	heapMB float64
}

// runPass times ops until their total time reaches budget or maxOps ops
// ran (0 = no bound). Input preparation and verification run between
// ops with the clocks stopped; lag records the harness's own time
// inside the timed region, from the readings before an op to its start.
// A failed preparation ends the pass with an error.
func runPass(ctx context.Context, w closedLoop, budget time.Duration, maxOps int, tr *tracer, stderr io.Writer) (pass, error) {
	var p pass
	runtime.GC()
	heap := watchHeap()
	for i := 0; p.busy < budget && (maxOps == 0 || i < maxOps); i++ {
		tr.setOp(-1)
		if err := w.prepare(i, tr); err != nil {
			heap.done()
			return p, fmt.Errorf("preparing op %d: %w", i, err)
		}
		tr.setOp(i)
		opCtx, cancel := context.WithTimeout(ctx, opTimeout)
		rt0 := readRuntime()
		c0 := cpuTime()
		ready := time.Now()
		t0 := time.Now()
		err := w.op(opCtx, i, tr)
		lat := time.Since(t0)
		c1 := cpuTime()
		cancel()
		p.rt.add(readRuntime().sub(rt0))
		p.lags = append(p.lags, t0.Sub(ready))
		p.lats = append(p.lats, lat)
		p.busy += lat
		p.cpu += c1 - c0
		if err == nil {
			err = w.verify(i)
		}
		if err != nil {
			p.failed++
			if p.failed <= 3 {
				fmt.Fprintf(stderr, "perfbench: op %d: %v\n", i, err)
			}
		}
	}
	tr.setOp(-1)
	p.heapMB = heap.done()
	return p, nil
}

// closedWorkload turns a closed-loop workload into a benchmark run.
// newLoop generates the inputs; tail is the percentile op_tail_ms
// reports (see the package doc).
func closedWorkload(newLoop func(seed int64, seconds float64) closedLoop, tail float64) workload {
	measure := func(ctx context.Context, cfg config, stderr io.Writer) (*report, error) {
		w := newLoop(cfg.seed, cfg.seconds)
		setups := make([]time.Duration, cfg.setups)
		for k := range setups {
			runtime.GC() // so that no set-up pays for its predecessor's garbage
			t0 := time.Now()
			if err := w.setup(ctx, nil); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			setups[k] = time.Since(t0)
		}
		p, err := runPass(ctx, w, seconds(cfg.seconds), w.limit(), nil, stderr)
		if err != nil {
			return nil, err
		}
		if len(p.lats) == 0 {
			return nil, fmt.Errorf("no op ran")
		}
		n := len(p.lats)
		sorted := slices.Clone(p.lats)
		slices.Sort(sorted)
		fmt.Fprintf(stderr, "perfbench: %d ops in %.2fs of op time, p%g of a quarter has %d samples beyond it\n",
			n, p.busy.Seconds(), 100*tail, n/4-int(tail*float64(n/4)))
		return &report{
			attempted: n,
			failed:    p.failed,
			metrics: map[string]metric{
				"setup_s":       {median(setups).Seconds(), "s"},
				"op_p50_ms":     {ms(quantile(sorted, 0.5)), "ms"},
				"op_tail_ms":    {ms(quarterTail(p.lats, tail)), "ms"},
				"ops_per_s":     {float64(n-p.failed) / p.busy.Seconds(), "1/s"},
				"cpu_ms_per_op": {ms(p.cpu) / float64(n), "ms"},
				"heap_peak_mb":  {p.heapMB, "MB"},
			},
		}, nil
	}

	traced := func(ctx context.Context, cfg config, stderr io.Writer) (*report, error) {
		w := newLoop(cfg.seed, cfg.seconds)
		if err := w.setup(ctx, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		plain, err := runPass(ctx, w, seconds(cfg.seconds/2), w.limit(), nil, stderr)
		if err != nil {
			return nil, err
		}
		if len(plain.lats) == 0 {
			return nil, fmt.Errorf("no op ran")
		}
		tr := newTracer(time.Now())
		if err := w.setup(ctx, tr); err != nil {
			return nil, fmt.Errorf("traced set-up: %w", err)
		}
		traced, err := runPass(ctx, w, time.Duration(1<<62), len(plain.lats), tr, stderr)
		if err != nil {
			return nil, err
		}
		if err := writeSpans(cfg.traceOut, tr.spans); err != nil {
			return nil, err
		}
		printSelfTimes(stderr, tr.spans)
		lags := slices.Clone(plain.lags)
		slices.Sort(lags)
		return &report{
			attempted: len(plain.lats) + len(traced.lats),
			failed:    plain.failed + traced.failed,
			metrics: layerMetrics(layerInputs{
				tr:           tr,
				ops:          len(traced.lats),
				opTime:       traced.busy,
				extraTime:    extraTime(tr.spans),
				untracedOps:  len(plain.lats),
				untracedTime: plain.busy,
				rt:           plain.rt,
				lagP99:       quantile(lags, 0.99),
			}),
		}, nil
	}
	return workload{measure: measure, traced: traced}
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
