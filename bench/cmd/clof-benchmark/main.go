// clof-benchmark runs the repository benchmark (package bench) and prints
// every metric as "name value unit", followed by a one-line JSON summary.
//
// Usage:
//
//	clof-benchmark -workload NAME [-seed S] [-seconds N] [-trace 0|1] [-out FILE]
//	clof-benchmark -compare A.json... -- B.json...
//
// -trace 0 reports the end-to-end metrics, measured with tracing off;
// -trace 1 runs the traced variant, reports the per-layer metrics, and
// writes the spans it kept as Chrome trace-event JSON to
// .bench_build/spans/NAME-seedS.json. -out also writes the full report,
// with quartiles and sample counts, as JSON. -compare reads two sets of such
// reports and checks them against the bounds in BENCHMARK.json, found in
// the working directory or above it; it exits 1 unless every metric is
// unchanged or improved.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/clof-go/clof/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("clof-benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "seed that generates every input")
	seconds := fs.Int("seconds", 20, "native timed window in seconds, split into repetitions")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics and spans")
	out := fs.String("out", "", "write the full report as JSON to this file")
	compare := fs.Bool("compare", false, "compare two sets of -out reports: -compare A.json... -- B.json...")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "clof-benchmark: want -workload NAME [-seed S] [-seconds N] [-trace 0|1], or -compare A... -- B...")
		return 2
	}
	w, err := bench.Lookup(*name)
	if err != nil {
		fmt.Fprintln(stderr, "clof-benchmark:", err)
		return 2
	}
	rep, err := bench.Run(w, bench.Options{Seed: *seed, Seconds: *seconds, Trace: *trace == 1})
	if err != nil {
		fmt.Fprintln(stderr, "clof-benchmark:", err)
		return 1
	}
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			fmt.Fprintln(stderr, "clof-benchmark:", err)
			return 1
		}
	}
	if *trace == 1 {
		spans := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", w.Name, *seed))
		if err := writeFile(spans, rep.WriteSpans); err != nil {
			fmt.Fprintln(stderr, "clof-benchmark:", err)
			return 1
		}
		fmt.Fprintln(stderr, "clof-benchmark: spans written to", spans)
	}
	rep.WriteText(stdout)
	line, err := rep.SummaryJSON()
	if err != nil {
		fmt.Fprintln(stderr, "clof-benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func runCompare(args []string, stdout, stderr io.Writer) int {
	var a, b []string
	sep := false
	for _, arg := range args {
		switch {
		case arg == "--":
			sep = true
		case sep:
			b = append(b, arg)
		default:
			a = append(a, arg)
		}
	}
	if len(a) == 0 || len(b) == 0 {
		fmt.Fprintln(stderr, "clof-benchmark: want -compare A.json... -- B.json...")
		return 2
	}
	specPath, err := findUp("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "clof-benchmark:", err)
		return 2
	}
	bounds, err := bench.LoadBounds(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "clof-benchmark:", err)
		return 2
	}
	ra, err := bench.LoadReports(a)
	if err != nil {
		fmt.Fprintln(stderr, "clof-benchmark:", err)
		return 2
	}
	rb, err := bench.LoadReports(b)
	if err != nil {
		fmt.Fprintln(stderr, "clof-benchmark:", err)
		return 2
	}
	if !bench.Compare(stdout, bounds, ra, rb) {
		return 1
	}
	return 0
}

// findUp returns the path of name in the working directory or the nearest
// directory above it that has one.
func findUp(name string) (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		p := filepath.Join(dir, name)
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no %s in the working directory or above it", name)
		}
		dir = parent
	}
}

func writeJSON(path string, rep *bench.Report) error {
	return writeFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	})
}

// writeFile creates path (and its directory) and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
