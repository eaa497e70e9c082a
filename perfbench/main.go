// Command perfbench is the repository's benchmark. It runs one workload
// against the system built from this checkout, checks every answer against
// a brute-force oracle computed from the inputs it generated, and prints
// one JSON result line: the end-to-end metrics, or with -trace 1 the
// per-layer metrics of a separate traced run.
//
// The serving workloads drive a thanosd process over a Unix socket; the
// per-layer figures also time direct calls into the engine, policy,
// filter and smbm packages. fattree-k8 runs the parallel netsim against
// its serial scheduler. perfbench/run.sh builds both binaries and runs
// this one; see perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	thanosd  string
	outDir   string
	runDir   string
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.thanosd, "thanosd", "", "path of the thanosd binary")
	flag.StringVar(&o.outDir, "out", ".bench_build/out", "directory for traced-run artifacts")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	o.runDir = filepath.Join(o.outDir, "run")
	if err := run(&o); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(o *options) error {
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if w.kind == kindServing && o.thanosd == "" {
		return fmt.Errorf("-thanosd is required for %s", w.name)
	}
	in := generate(w, o.seed)
	f := newFigures()
	var rec *recorder
	if o.trace {
		rec = &recorder{}
	}

	var t *tally
	switch w.kind {
	case kindServing:
		r := &servingRun{o: o, w: w, in: in, f: f, rec: rec}
		t = &r.t
		if o.trace {
			err = r.runTraced()
		} else {
			err = r.run()
		}
	case kindNetsim:
		r := &netRun{o: o, in: in, f: f, rec: rec}
		t = &r.t
		if o.trace {
			err = r.runTraced()
		} else {
			err = r.run()
		}
	}
	if err != nil {
		return err
	}

	attempted, failed := t.attempted.Load(), t.failed.Load()
	fmt.Printf("%s seed %d: %d checked answers, %d failed (%d wrong)\n", w.name, o.seed, attempted, failed, t.wrong.Load())
	f.ratio("run.error_rate", float64(failed), float64(attempted), fmt.Sprintf("failed/attempted; base %d attempted", attempted))
	res := result{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed}
	if o.trace {
		spanSummary(rec)
		if err := writeArtifacts(o.artifactDir(), rec, f); err != nil {
			return err
		}
		res.Metrics = f.report(perLayer)
	} else {
		res.Metrics = f.report(endToEnd)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
