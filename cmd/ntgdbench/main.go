// Command ntgdbench measures shedding versus parking under open-loop
// load. It answers the daemon's admission design question with numbers
// rather than prose: when offered load exceeds capacity, does bounded
// deadline-aware admission (shed) deliver more goodput — requests
// completed within their deadline — than the historical unbounded
// parking queue (park)?
//
//	ntgdbench                           # 4 slots, 3 s per point
//	ntgdbench -max-runs 2 -overload-duration 1s
//
// Method:
//
//  1. Start two in-process daemons, identical except for the admission
//     queue: "park" has MaxQueuedRuns 0 (unbounded, the default),
//     "shed" bounds the queue at 2× the slot count.
//  2. Calibrate: a closed loop of exactly `slots` workers against an
//     idle daemon measures real capacity (requests per second with
//     every slot busy — HTTP overhead and CPU contention included);
//     the mean service time S = slots/capacity sets every request's
//     deadline at 3×S — tight enough that time spent queued is time
//     stolen from the solve. Slots are clamped to the core count: a
//     slot that cannot run in parallel adds queueing, not capacity.
//  3. For each multiple m in {1, 2, 4}: offer m×capacity as an open
//     loop (arrivals fire on a fixed clock and do NOT wait for earlier
//     responses — exactly how real overload arrives) through
//     ntgdclient with retries disabled, against each daemon in turn.
//
// Each of the six points prints one JSON line on stdout (name, p50
// latency, offered and goodput rates, shed rate and outcome counts) and
// one row of a summary table on stderr.
//
// Parking loses goodput at overload two ways: requests sit in the
// unbounded queue burning their deadline before they ever run (then
// waste a slot on work that can no longer finish in time), and every
// excess request holds its connection for its full deadline before
// failing. Shedding refuses queue-full and deadline-hopeless work in
// microseconds, so slots only run requests that still have headroom.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"ntgd"
	"ntgd/internal/server"
	"ntgd/ntgdclient"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ntgdbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	maxRuns := fs.Int("max-runs", 0, "admission slots of each in-process daemon (0 = 4, at most the core count)")
	overloadDur := fs.Duration("overload-duration", 3*time.Second, "open-loop duration per point")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	return runOverload(stdout, stderr, *maxRuns, *overloadDur)
}

// pctile returns the q-quantile of sorted latencies (nearest-rank).
func pctile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// overloadPoint is one JSON line of the experiment.
type overloadPoint struct {
	Name string `json:"name"` // "SrvOverload/<policy>/x<multiple>"
	// NsOp is the p50 latency of completed requests.
	NsOp       int64   `json:"ns_op"`
	Policy     string  `json:"policy"`    // "shed" | "park"
	OfferedX   float64 `json:"offered_x"` // offered load as a multiple of capacity
	OfferedRPS float64 `json:"offered_rps"`
	// GoodputRPS is the headline number: requests completed within
	// their deadline per second of wall clock.
	GoodputRPS float64 `json:"goodput_rps"`
	// ShedRate is refused requests (429/503) over offered requests.
	ShedRate  float64 `json:"shed_rate"`
	Requests  int     `json:"requests"`
	Completed int     `json:"completed"`
	Shed      int     `json:"shed"`
	TimedOut  int     `json:"timed_out"`
	Errors    int     `json:"errors"`
	Workers   int     `json:"workers"` // daemon slots
}

// overloadProgram is the calibration workload: a subset-choice program
// whose full solve enumerates 2^n models — deterministic work whose
// duration the calibration step measures rather than assumes.
func overloadProgram(n int) string {
	var b []byte
	for i := 0; i < n; i++ {
		b = fmt.Appendf(b, "item(i%d).\n", i)
	}
	b = append(b, "item(X), not out(X) -> in(X).\nitem(X), not in(X) -> out(X).\n"...)
	return string(b)
}

// startDaemon boots an in-process daemon with the given queue policy
// and returns its base URL and a shutdown func.
func startDaemon(slots, maxQueued int) (string, func(), error) {
	srv := server.New(server.Config{
		MaxConcurrentRuns: slots,
		MaxQueuedRuns:     maxQueued,
		Options:           ntgd.Options{Workers: 1},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln) //nolint:errcheck // torn down via Close
	return "http://" + ln.Addr().String(), func() { hs.Close() }, nil
}

func overloadClient(base string) *ntgdclient.Client {
	return ntgdclient.New(base,
		// Retries off: the experiment measures the daemon's shedding,
		// not the client's persistence, and the open loop must offer
		// exactly the configured rate.
		ntgdclient.WithRetryPolicy(ntgdclient.RetryPolicy{MaxAttempts: 1, Budget: -1}),
		ntgdclient.WithHTTPClient(&http.Client{Transport: &http.Transport{
			MaxIdleConns:        4096,
			MaxIdleConnsPerHost: 4096,
		}}),
	)
}

// runOverload executes the whole experiment, printing one JSON line
// per (policy, multiple) point to stdout and a summary table to stderr.
func runOverload(stdout, stderr io.Writer, slots int, duration time.Duration) int {
	if slots <= 0 {
		slots = 4
	}
	if n := runtime.NumCPU(); slots > n {
		slots = n
	}
	if duration <= 0 {
		duration = 3 * time.Second
	}
	// 2^8 models ≈ tens of milliseconds per solve: heavy enough that
	// capacity is a few dozen rps and the load generator (sharing this
	// machine) can genuinely offer 4× that over HTTP.
	prog := overloadProgram(8)

	parkURL, stopPark, err := startDaemon(slots, 0)
	if err != nil {
		fmt.Fprintln(stderr, "ntgdbench:", err)
		return 1
	}
	defer stopPark()
	shedURL, stopShed, err := startDaemon(slots, 2*slots)
	if err != nil {
		fmt.Fprintln(stderr, "ntgdbench:", err)
		return 1
	}
	defer stopShed()
	park, shed := overloadClient(parkURL), overloadClient(shedURL)

	// Calibrate capacity on each daemon (warming both program
	// caches); use the slower estimate so "1x" is never an accidental
	// overload.
	capacity, err := calibrate(park, prog, slots)
	if err == nil {
		var c2 float64
		c2, err = calibrate(shed, prog, slots)
		if err == nil && c2 < capacity {
			capacity = c2
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "ntgdbench: calibration:", err)
		return 1
	}
	service := time.Duration(float64(slots) / capacity * float64(time.Second))
	deadline := 3 * service
	if deadline < 10*time.Millisecond {
		deadline = 10 * time.Millisecond
	}
	fmt.Fprintf(stderr, "ntgdbench: overload: service=%s capacity=%.1f rps deadline=%s slots=%d\n",
		service.Round(time.Microsecond), capacity, deadline.Round(time.Millisecond), slots)
	fmt.Fprintf(stderr, "%-22s %8s %10s %10s %9s %9s %7s\n",
		"point", "offered", "goodput", "p50", "shed%", "timeout", "errs")

	for _, m := range []float64{1, 2, 4} {
		for _, pc := range []struct {
			name string
			c    *ntgdclient.Client
		}{{"shed", shed}, {"park", park}} {
			pt := drive(pc.c, prog, m*capacity, deadline, duration)
			pt.Name = fmt.Sprintf("SrvOverload/%s/x%g", pc.name, m)
			pt.Policy = pc.name
			pt.OfferedX = m
			pt.Workers = slots
			fmt.Fprintf(stderr, "%-22s %8.1f %10.1f %10s %8.1f%% %9d %7d\n",
				pt.Name, pt.OfferedRPS, pt.GoodputRPS,
				time.Duration(pt.NsOp).Round(time.Microsecond),
				100*pt.ShedRate, pt.TimedOut, pt.Errors)
			line, err := json.Marshal(pt)
			if err != nil {
				fmt.Fprintln(stderr, "ntgdbench:", err)
				return 1
			}
			fmt.Fprintf(stdout, "%s\n", line)
		}
	}
	return 0
}

// calibrate measures the daemon's capacity in requests/second: slots
// closed-loop workers hammer it for a fixed window after warmup, so
// the number already reflects HTTP overhead and real CPU contention.
func calibrate(c *ntgdclient.Client, prog string, slots int) (float64, error) {
	req := ntgdclient.Request{Program: prog, TimeoutMS: 30_000}
	for i := 0; i < 2; i++ {
		if _, err := c.Solve(context.Background(), req); err != nil {
			return 0, err
		}
	}
	const window = time.Second
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		done     int
		firstErr error
	)
	start := time.Now()
	for w := 0; w < slots; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < window {
				_, err := c.Solve(context.Background(), req)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				done++
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return 0, firstErr
	}
	if done == 0 {
		return 0, fmt.Errorf("calibration completed no requests")
	}
	return float64(done) / elapsed.Seconds(), nil
}

// drive offers rate requests/second for duration as an open loop and
// classifies every outcome.
func drive(c *ntgdclient.Client, prog string, rate float64, deadline, duration time.Duration) overloadPoint {
	interval := time.Duration(float64(time.Second) / rate)
	// Fire arrivals in small batches when the interval outruns timer
	// granularity; the offered rate stays exact.
	batch := 1
	for interval < time.Millisecond {
		batch *= 2
		interval *= 2
	}
	total := int(duration.Seconds() * rate)
	if total < 1 {
		total = 1
	}
	req := ntgdclient.Request{Program: prog, TimeoutMS: deadline.Milliseconds()}

	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		completed []time.Duration
		pt        overloadPoint
	)
	fire := func() {
		defer wg.Done()
		t0 := time.Now()
		_, err := c.Solve(context.Background(), req)
		lat := time.Since(t0)
		mu.Lock()
		defer mu.Unlock()
		switch ae, ok := ntgdclient.AsAPIError(err); {
		case err == nil:
			pt.Completed++
			completed = append(completed, lat)
		case ok && (ae.Status == http.StatusTooManyRequests || ae.Status == http.StatusServiceUnavailable):
			pt.Shed++
		case ok && ae.Status == http.StatusGatewayTimeout:
			pt.TimedOut++
		default:
			pt.Errors++
		}
	}

	start := time.Now()
	tick := time.NewTicker(interval)
	fired := 0
	for fired < total {
		<-tick.C
		for b := 0; b < batch && fired < total; b++ {
			wg.Add(1)
			fired++
			go fire()
		}
	}
	tick.Stop()
	// Offered rate over the arrival window (before the drain tail); if
	// the generator could not keep the pace — tick coalescing under
	// load — the point honestly reports the rate it achieved.
	arrivals := time.Since(start)
	wg.Wait()
	elapsed := time.Since(start)

	sort.Slice(completed, func(i, j int) bool { return completed[i] < completed[j] })
	pt.Requests = pt.Completed + pt.Shed + pt.TimedOut + pt.Errors
	pt.OfferedRPS = float64(fired) / arrivals.Seconds()
	pt.GoodputRPS = float64(pt.Completed) / elapsed.Seconds()
	if pt.Requests > 0 {
		pt.ShedRate = float64(pt.Shed) / float64(pt.Requests)
	}
	pt.NsOp = pctile(completed, 0.50).Nanoseconds()
	return pt
}
