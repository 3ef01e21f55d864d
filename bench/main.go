// Command bench is the repository's benchmark: six workloads over the
// paper-scale CDL cascades and their three serving topologies, every output
// checked against the CDLN.Classify oracle. See README.md.
//
// The driver runs one workload per process:
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output. Without --workload it runs
// every workload (and, with --trace 1, every traced run) and prints a
// table; -repeat, -compare, -manifest and -regen-fixtures are described in
// README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (default: all of them, one child process each)")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs and arrival schedules")
		seconds  = flag.Float64("seconds", runSeconds, "how long one run measures")
		trace    = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics, 0 = end-to-end run")
		repeat   = flag.Int("repeat", 1, "run this many full sets back to back and compare them")
		out      = flag.String("out", "", "with -repeat or no -workload: write the result document here")
		compare  = flag.Bool("compare", false, "compare two result documents: -compare old.json new.json")
		showSpec = flag.Bool("manifest", false, "print BENCHMARK.json")
		regen    = flag.Bool("regen-fixtures", false, "retrain testdata/*.cdln")
	)
	flag.Parse()
	var err error
	switch {
	case *showSpec:
		var doc []byte
		if doc, err = manifest(); err == nil {
			_, err = os.Stdout.Write(doc)
		}
	case *regen:
		err = regenFixtures("testdata")
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare wants two result documents")
		} else {
			err = compareFiles(flag.Arg(0), flag.Arg(1))
		}
	case *seconds <= 0:
		err = errors.New("-seconds must be positive")
	case *name != "":
		var w workload
		if w, err = workloadByName(*name); err == nil {
			err = runOne(w, *seed, *seconds, *trace != 0)
		}
	default:
		err = runSets(*seed, *seconds, *trace != 0, *repeat, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// measure dispatches one run and checks it printed what it declared.
func measure(w workload, seed int64, seconds float64, traced bool) (*outcome, error) {
	run := runEndToEnd
	if traced {
		run = runTraced
	}
	o, err := run(w, seed, seconds)
	if err != nil {
		return nil, err
	}
	decls := declsFor(traced)
	if len(o.metrics) != len(decls) {
		return nil, fmt.Errorf("%s printed %d metrics, %d are declared", w.Name, len(o.metrics), len(decls))
	}
	for _, d := range decls {
		if _, ok := o.metrics[d.Name]; !ok {
			return nil, fmt.Errorf("%s did not measure declared metric %s", w.Name, d.Name)
		}
	}
	return o, nil
}

// report prints one run for a reader: notes, then every metric by name and
// unit in declaration order.
func report(w workload, o *outcome, traced bool) {
	for _, n := range o.notes {
		fmt.Printf("# %s: %s\n", w.Name, n)
	}
	for _, d := range declsFor(traced) {
		fmt.Printf("%-14s %-38s %16.6g %s\n", w.Name, d.Name, o.metrics[d.Name], d.Unit)
	}
	fmt.Printf("%-14s %-38s %16.6g fraction (%d of %d)\n", w.Name, "fail_frac", float64(o.failed)/float64(o.attempted), o.failed, o.attempted)
	if o.firstErr != nil {
		fmt.Printf("# %s: first failure: %v\n", w.Name, o.firstErr)
	}
}

// runOne is the driver's entry: one workload, result object on the last line.
func runOne(w workload, seed int64, seconds float64, traced bool) error {
	o, err := measure(w, seed, seconds, traced)
	if err != nil {
		return err
	}
	report(w, o, traced)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	decls := declsFor(traced)
	metrics := make(map[string]value, len(decls))
	for _, d := range decls {
		metrics[d.Name] = value{o.metrics[d.Name], d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if o.failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed, first: %v", w.Name, o.failed, o.attempted, o.firstErr)
	}
	return nil
}
