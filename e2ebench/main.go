// Command e2ebench is the repository's end-to-end benchmark. It runs
// one workload of the IDDE-G pipeline (instance build, Phase 1 game,
// Phase 2 greedy delivery, global or sharded) and of the serving plane
// that puts the plan into service, checks every output, and prints the
// metrics as the last line of standard output:
//
//	bash e2ebench/run.sh --workload solve-dense --seed 1 --seconds 36 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 makes one
// traced pass plus probe calls and reports the per-layer metrics. All
// timing is taken around calls into the program's exported functions.
// See README.md for the workloads and the metric → layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"idde/internal/serve"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: solve-dense, solve-wide or serve-churn")
	seed := fs.Uint64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 36, "run length in seconds: sets how many instances the run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced pass and per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := specByName(*name)
	if err != nil || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: need --workload solve-dense|solve-wide|serve-churn and --trace 0|1\n")
		return 2
	}

	var (
		m metrics
		g gate
	)
	if *trace == 0 {
		m, g, err = endToEnd(stdout, sp, *seed, *seconds)
	} else {
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.trace.json", sp.Name, *seed))
		m, g, err = perLayer(stdout, sp, *seed, path)
	}
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", sp.Name, err)
		return 1
	}
	for _, r := range g.Reasons {
		fmt.Fprintf(stdout, "FAILED: %s\n", r)
	}
	fmt.Fprintf(stdout, "failed_frac %.6g (%d failed of %d attempted)\n",
		float64(g.Failed)/float64(max(g.Attempted, 1)), g.Failed, g.Attempted)
	out, err := json.Marshal(result{Correct: g.Failed == 0, Attempted: g.Attempted, Failed: g.Failed, Metrics: m})
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if g.Failed > 0 {
		return 1
	}
	return 0
}

// endToEnd runs one pass over each of the run's instances and reports
// the end-to-end metrics: timings and peak RSS as the median over the
// run's samples, plan quality and the soak's tail as the mean over its
// instances, availability pooled over all soaked requests.
func endToEnd(w io.Writer, sp spec, seed uint64, seconds float64) (metrics, gate, error) {
	var (
		g                          gate
		setups, solves, rpss, rsss []float64
		rate, lat, tail            float64
		good, total                int64
	)
	n := sp.instances(seconds)
	runPrint := fnv.New64a() // over every instance's fingerprint
	start := time.Now()
	for p := range n {
		// Every pass starts from a collected heap and measures its own
		// peak RSS, so one late GC cycle moves one sample, not the metric.
		runtime.GC()
		debug.FreeOSMemory()
		resetPeakRSS()
		is := instanceSeed(seed, p)
		o, err := runOnce(newTracer(false), sp, is, sp.Setups)
		if err != nil {
			return nil, g, fmt.Errorf("instance %d (seed %d): %w", p, is, err)
		}
		g.add(o.Gate)
		if o.Report == nil {
			return metrics{}, g, nil // the plan is invalid and counted: nothing to measure
		}
		for _, d := range o.Setups {
			setups = append(setups, d.Seconds())
		}
		for _, d := range o.Solves {
			solves = append(solves, d.Seconds())
		}
		rpss = append(rpss, float64(o.Report.Issued)/o.Soak.Seconds())
		rsss = append(rsss, peakRSSMB())
		rate += float64(o.Rate) / float64(n)
		lat += o.Lat.Millis() / float64(n)
		tail += soakTail(o.Report) / float64(n)
		gd, tot := availability(o.Report)
		good, total = good+gd, total+tot
		fmt.Fprintf(w, "pass %d: setup %.4f s, solve %.4f s, soak %.4f s (%.0f req/s), peak RSS %.1f MB\n",
			p, o.setup().Seconds(), o.solve().Seconds(), o.Soak.Seconds(), rpss[len(rpss)-1], rsss[len(rsss)-1])
		runPrint.Write(printFingerprint(w, fmt.Sprintf("instance %d seed %d", p, is), fingerprintOf(o)))
	}
	fmt.Fprintf(w, "fingerprint run %016x\n", runPrint.Sum64())

	m := metrics{}
	m.set("setup_s", "s", median(setups))
	m.set("solve_s", "s", median(solves))
	m.set("peak_rss_mb", "MB", median(rsss))
	m.set("avg_rate_mbps", "MBps", rate)
	m.set("avg_latency_ms", "ms", lat)
	m.set("serve_req_per_s", "1/s", median(rpss))
	m.set("serve_p999_ms", "ms", tail)
	m.set("serve_avail", "ratio", float64(good)/float64(max(total, 1)))

	fmt.Fprintf(w, "workload %s seed %d: %d instances in %.1f s, GOMAXPROCS=%d\n",
		sp.Name, seed, n, time.Since(start).Seconds(), runtime.GOMAXPROCS(0))
	samples := map[string]int{"setup_s": len(setups), "solve_s": len(solves),
		"serve_req_per_s": len(rpss), "peak_rss_mb": len(rsss)}
	printMetrics(w, m, samples)
	return m, g, nil
}

// soakTail is the p99.9 virtual latency of the soak's faulted phase,
// or of the whole soak when it injects no outage. (The faulted p99 sits
// on the cloud fetch of the largest item, 150 ms, on every seed.)
func soakTail(rep *serve.SoakReport) float64 {
	if ph := rep.Phase(serve.PhaseFaulted); ph != nil && ph.Requests > 0 {
		return ph.P999Ms
	}
	if ph := rep.Phase(serve.PhaseHealthy); ph != nil {
		return ph.P999Ms
	}
	return 0
}

// availability is the availability SLO's good and total counts.
func availability(rep *serve.SoakReport) (good, total int64) {
	for _, s := range rep.SLOs {
		if s.Name == "availability" {
			return s.Good, s.Total
		}
	}
	return 0, 0
}

// resetPeakRSS starts a new peak-RSS window: on Linux, writing 5 to
// clear_refs resets the VmHWM high-water mark. Elsewhere the window
// stays the process lifetime.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB is the peak resident set size in MB since the last
// resetPeakRSS, or of the process when it cannot be reset.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// printMetrics lists the metrics by name; samples gives the sample
// count of those that are medians.
func printMetrics(w io.Writer, m metrics, samples map[string]int) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		note := ""
		if c, ok := samples[n]; ok {
			note = fmt.Sprintf("  (median of %d)", c)
		}
		fmt.Fprintf(w, "  %-34s %18.6f %-6s%s\n", n, m[n].Value, m[n].Unit, note)
	}
}

// printFingerprint prints the fingerprint as JSON and returns the JSON.
func printFingerprint(w io.Writer, label string, fp fingerprint) []byte {
	b, _ := json.Marshal(fp) // a struct of strings and ints always marshals
	fmt.Fprintf(w, "fingerprint %s %s\n", label, b)
	return b
}
