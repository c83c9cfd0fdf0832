// Command roundbench is the repository's round benchmark: it drives full
// sim.ChainNet deployments (three chain servers, every leg inside
// transport.Secure, durable round state) with its own client swarm in
// a closed loop, one round at a time, and checks every reply.
//
//	roundbench --workload convo-users --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs the same deployment untraced and then traced, splits each traced
// round along its blocking steps, and times every layer's public calls
// at the workload's shapes. The last line of standard output is the
// result: {"correct", "attempted", "failed", "metrics"}. The line before
// it records the run's details and environment. README.md describes the
// workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"syscall"
	"time"
)

// options configures one run.
type options struct {
	workload   string
	seed       uint64
	seconds    float64
	trace      bool
	stateRoot  string
	sourceRoot string
	// setupReps is how many times the deployment is set up; setup_s is
	// the median.
	setupReps int
	// probeOps is the loop length of the per-operation layer probes.
	probeOps int
}

// minRounds keeps short runs long enough for a tail below the slowest
// round and, traced, for a median over five split rounds.
const minRounds = 11

// sumTolerance is the sum check's bound: the median round's stages
// (collect, every hop's self time, fan-out) must cover the round's
// latency to within this share.
const sumTolerance = 0.05

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// details is the line before the result.
type details struct {
	Workload    string    `json:"workload"`
	Seed        uint64    `json:"seed"`
	Trace       bool      `json:"trace"`
	Loop        string    `json:"loop"`
	Rounds      int       `json:"rounds"`
	TracedRound int       `json:"traced_rounds,omitempty"`
	TailPct     float64   `json:"round_tail_percentile,omitempty"`
	SetupS      []float64 `json:"setup_s_samples,omitempty"`
	SumCheck    string    `json:"sum_check,omitempty"`
	sumFailed   bool
	// StaleReply counts replies for a round other than the open one; any
	// makes the run incorrect.
	StaleReply  int64       `json:"stale_replies"`
	Errors      []string    `json:"errors,omitempty"`
	Environment environment `json:"environment"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: convo-users, convo-noise or dial")
	flag.Uint64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long to measure")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.StringVar(&o.stateRoot, "state-root", ".bench_build/state", "directory for the deployments' round-state files")
	flag.StringVar(&o.sourceRoot, "source-root", ".", "module root, for the source digest")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	o.trace = *trace == 1
	o.setupReps, o.probeOps = 5, 200
	ok, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "roundbench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// phase accumulates one run of timed rounds.
type phase struct {
	latNS      []float64
	windowNS   float64
	cpuNS      float64
	allocBytes uint64
	attempted  int
	ok, failed int
	errs       []string
}

// measure runs rounds back to back for at least dur (and minRounds).
// Between rounds it wraps the next round's onions and collects the
// benchmark's own garbage; each timed window covers only the round.
// onRound, if set, sees every round and the CPU it took right after its
// window closes.
func measure(d *deployment, dur time.Duration, onRound func(roundResult, time.Duration)) phase {
	var p phase
	ctx := context.Background()
	deadline := time.Now().Add(dur)
	var m0, m1 runtime.MemStats
	for time.Now().Before(deadline) || len(p.latNS) < minRounds {
		runtime.GC()
		runtime.ReadMemStats(&m0)
		c0 := cpuTime()
		res := d.runRound(ctx)
		c1 := cpuTime()
		runtime.ReadMemStats(&m1)
		if onRound != nil {
			onRound(res, c1-c0)
		}
		p.attempted += res.ok + res.failed
		p.ok += res.ok
		p.failed += res.failed
		p.errs = append(p.errs, res.errs...)
		if res.failed > 0 {
			break
		}
		p.latNS = append(p.latNS, float64(res.latency()))
		p.windowNS += float64(res.latency())
		p.cpuNS += float64(c1 - c0)
		p.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		if err := d.prepareNext(); err != nil {
			p.errs = append(p.errs, err.Error())
			p.failed++
			break
		}
	}
	return p
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func run(o options, out io.Writer) (bool, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return false, err
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	if err := os.MkdirAll(o.stateRoot, 0o755); err != nil {
		return false, err
	}
	det := details{
		Workload:    w.name,
		Seed:        o.seed,
		Trace:       o.trace,
		Loop:        fmt.Sprintf("closed loop: %d clients, one round in flight, next round starts after the last reply is checked", w.clients),
		Environment: describeEnvironment(o.sourceRoot, o.stateRoot),
	}
	dur := time.Duration(o.seconds * float64(time.Second))
	res := result{Metrics: make(map[string]metric)}
	var p phase
	if !o.trace {
		p, err = runEndToEnd(w, o, dur, &det, res.Metrics)
	} else {
		p, err = runTraced(w, o, dur, &det, res.Metrics)
	}
	if err != nil {
		return false, err
	}
	res.Attempted, res.Failed = p.attempted, p.failed
	res.Correct = p.failed == 0 && det.StaleReply == 0 && !det.sumFailed
	det.Rounds = len(p.latNS)
	det.Errors = append(det.Errors, p.errs...)
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return false, fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	for _, v := range []any{det, res} {
		line, err := json.Marshal(v)
		if err != nil {
			return false, err
		}
		fmt.Fprintf(out, "%s\n", line)
	}
	return res.Correct, nil
}

// runEndToEnd sets the deployment up setupReps times, keeps the last one,
// and measures untraced rounds.
func runEndToEnd(w workload, o options, dur time.Duration, det *details, out map[string]metric) (phase, error) {
	var d *deployment
	for i := 0; i < o.setupReps; i++ {
		if d != nil {
			d.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if d, err = setUp(w, o.seed, o.stateRoot, false); err != nil {
			return phase{}, fmt.Errorf("setting up %s: %w", w.name, err)
		}
		det.SetupS = append(det.SetupS, time.Since(start).Seconds())
	}
	p := measure(d, dur, nil)
	det.StaleReply = d.sw.stale.Load()
	d.close()
	if len(p.latNS) == 0 {
		return p, nil
	}
	det.TailPct = tailPercentile
	out["setup_s"] = metric{median(det.SetupS), "s"}
	out["round_p50_ms"] = metric{ms(median(p.latNS)), "ms"}
	out["round_tail_ms"] = metric{ms(tail(p.latNS)), "ms"}
	out["msgs_per_s"] = metric{float64(p.ok) / (p.windowNS / 1e9), "1/s"}
	out["cpu_ms_per_msg"] = metric{ms(p.cpuNS) / float64(p.ok), "ms"}
	out["alloc_kb_per_msg"] = metric{float64(p.allocBytes) / 1024 / float64(p.ok), "KiB"}
	return p, nil
}

// runTraced measures one traced deployment for 80% of dur, alternating
// untraced and traced rounds so that machine drift hits both alike,
// splits every traced round, and then runs the layer-cost probes.
func runTraced(w workload, o options, dur time.Duration, det *details, out map[string]metric) (phase, error) {
	d, err := setUp(w, o.seed, o.stateRoot, true)
	if err != nil {
		return phase{}, fmt.Errorf("setting up %s: %w", w.name, err)
	}
	legs := legOf(d.cn)
	var (
		plain, traced phase
		bds           []breakdown
		traceErrs     []string
		recording     bool
	)
	p := measure(d, dur*4/5, func(res roundResult, cpu time.Duration) {
		if res.failed > 0 {
			return
		}
		lat := float64(res.latency())
		if !recording {
			plain.latNS = append(plain.latNS, lat)
			plain.windowNS += lat
			plain.cpuNS += float64(cpu)
		} else {
			traced.latNS = append(traced.latNS, lat)
			var lastHop time.Duration
			if !w.dial {
				lastHop = time.Duration(d.lastHop.Load())
			}
			b, err := analyse(d.tn.take(), legs, d.tn.since(res.start), d.tn.since(res.end), lastHop, w.frontends > 0)
			if err != nil {
				traceErrs = append(traceErrs, fmt.Sprintf("round %d: %v", res.round, err))
			} else {
				bds = append(bds, b)
			}
		}
		recording = !recording
		d.tn.record(recording)
		d.tn.take()
	})
	d.tn.record(false)
	det.StaleReply = d.sw.stale.Load()
	d.close()

	p.errs = append(p.errs, traceErrs...)
	det.TracedRound = len(bds)
	if p.failed > 0 || len(plain.latNS) == 0 || len(bds) == 0 {
		det.SumCheck, det.sumFailed = "failed: a round failed or none could be split", true
		return p, nil
	}

	probeDir, err := os.MkdirTemp(o.stateRoot, "probe-")
	if err != nil {
		return p, err
	}
	defer os.RemoveAll(probeDir)
	costs, err := layerCosts(w, probeDir, o.probeOps)
	if err != nil {
		return p, fmt.Errorf("layer probes: %w", err)
	}
	for name, m := range costs {
		out[name] = m
	}

	med := func(f func(b breakdown) float64) float64 {
		xs := make([]float64, len(bds))
		for i, b := range bds {
			xs[i] = f(b)
		}
		return median(xs)
	}
	for i := 0; i < servers; i++ {
		out[fmt.Sprintf("mixnet.hop%d.self_ms", i)] = metric{med(func(b breakdown) float64 { return ms(float64(b.self[i])) }), "ms"}
		if i < servers-1 {
			out[fmt.Sprintf("mixnet.hop%d.wait_ms", i)] = metric{med(func(b breakdown) float64 { return ms(float64(b.wait[i])) }), "ms"}
		}
	}
	out["mixnet.hop2.unwrap_ms"] = metric{med(func(b breakdown) float64 { return ms(float64(b.lastUnwrap)) }), "ms"}
	out["mixnet.hop2.exchange_seal_ms"] = metric{med(func(b breakdown) float64 { return ms(float64(b.lastSeal)) }), "ms"}
	out["coordinator.collect_ms"] = metric{med(func(b breakdown) float64 { return ms(float64(b.collect)) }), "ms"}
	out["coordinator.fanout_ms"] = metric{med(func(b breakdown) float64 { return ms(float64(b.fanout)) }), "ms"}
	out["frontend.batch_ms"] = metric{med(func(b breakdown) float64 { return ms(float64(b.frontBatch)) }), "ms"}
	for leg := range legNames {
		out["transport."+legNames[leg]+".kb_per_round"] = metric{med(func(b breakdown) float64 { return b.kb[leg] }), "KiB"}
		out["transport."+legNames[leg]+".writes_per_round"] = metric{med(func(b breakdown) float64 { return float64(b.writes[leg]) }), "count"}
	}
	unaccounted := med(func(b breakdown) float64 { return float64(b.unaccounted) / float64(b.round) })
	out["trace.unaccounted_frac"] = metric{unaccounted, "frac"}
	out["trace.overhead_ms"] = metric{ms(median(traced.latNS) - median(plain.latNS)), "ms"}
	out["process.cpu_busy_frac"] = metric{plain.cpuNS / (plain.windowNS * float64(runtime.GOMAXPROCS(0))), "frac"}
	det.sumFailed = math.Abs(unaccounted) > sumTolerance || len(traceErrs) > 0
	verdict := "passed"
	if det.sumFailed {
		verdict = "failed"
	}
	det.SumCheck = fmt.Sprintf("%s: median round unaccounted %.4f of latency (tolerance %.2f), %d rounds not split", verdict, unaccounted, sumTolerance, len(traceErrs))
	return p, nil
}
