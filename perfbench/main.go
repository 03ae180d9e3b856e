// Command perfbench is the repository's benchmark. It drives the précis
// engine through the paths a precis-server user reaches — served searches
// through the web handler, durable mutations, synchronous replication —
// checks that the outputs are correct, and prints end-to-end metrics, or,
// with --trace 1, per-layer metrics from spans it records around its own
// calls into each layer. See README.md for the workloads and metrics.
//
//	bash perfbench/run.sh --workload query-heavy --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// films is the synthetic database size every workload runs at (about 200k
// tuples).
const films = 20000

func main() {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := flag.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := flag.Int64("seed", 1, "seed of the generated traffic")
	seconds := flag.Float64("seconds", 10, "length of the measured load phase")
	trace := flag.Int("trace", 0, "1 records spans and prints per-layer metrics instead of end-to-end ones")
	work := flag.String("work", filepath.Join(".bench_build", "perfbench"), "directory for data, trace dumps and saved results")
	flag.Parse()
	w := findWorkload(*name)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, work: *work, films: films}
	rp, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !cfg.trace {
		if err := saveResult(cfg.work, w.name, rp); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: saving result:", err)
		}
	}
	fmt.Printf("workload %s seed %d seconds %g trace %d\n", w.name, *seed, *seconds, *trace)
	for _, m := range rp.metrics {
		fmt.Printf("  %-36s %14.4f %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	for _, l := range rp.lines {
		fmt.Println(l)
	}
	for _, e := range rp.errors {
		fmt.Println("FAILED:", e)
	}
	for _, p := range rp.problems {
		fmt.Println("PROBLEM:", p)
	}
	out, err := json.Marshal(rp.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (rp *report) result() jsonResult {
	res := jsonResult{Correct: len(rp.problems) == 0, Attempted: rp.attempted, Failed: rp.failed,
		Metrics: map[string]jsonMetric{}}
	for _, m := range rp.metrics {
		res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	return res
}

func resultPath(work, workload string) string {
	return filepath.Join(work, "untraced-"+workload+".json")
}

// saveResult keeps the end-to-end metrics of the last untraced run, for
// the tracing-overhead line of the next traced run.
func saveResult(work, workload string, rp *report) error {
	vals := map[string]float64{}
	for _, m := range rp.metrics {
		vals[m.name] = m.value
	}
	raw, err := json.Marshal(vals)
	if err != nil {
		return err
	}
	return os.WriteFile(resultPath(work, workload), raw, 0o644)
}

func loadResult(work, workload string) (map[string]float64, error) {
	raw, err := os.ReadFile(resultPath(work, workload))
	if err != nil {
		return nil, err
	}
	vals := map[string]float64{}
	return vals, json.Unmarshal(raw, &vals)
}
