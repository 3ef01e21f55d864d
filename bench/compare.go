package main

// compare.go holds the two scripted checks on result documents: -repeat
// (do back-to-back sets of the same code agree within the bounds?) and
// -compare (did a change make any end-to-end metric worse than its bound
// allows?). Both use only the end-to-end runs of a document.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// runRecord is one run of one workload inside a result document.
type runRecord struct {
	Workload  string             `json:"workload"`
	Set       int                `json:"set"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// document is what a multi-workload invocation writes with -out.
type document struct {
	Seed    int64       `json:"seed"`
	Seconds float64     `json:"seconds"`
	Runs    []runRecord `json:"runs"`
}

// exactMetrics must be bit-equal across sets of one seed.
var exactMetrics = map[string]bool{"accuracy": true, "norm_ops": true, "pj_per_image": true}

// runChild measures one workload in a process of its own, as the driver
// does: a run that follows another in the same process inherits its heap
// and garbage-collector state and reads differently. It relays the child's
// report and returns the result object from its last line.
func runChild(w workload, seed int64, seconds float64, traced bool) (runRecord, error) {
	rec := runRecord{Workload: w.Name, Traced: traced}
	exe, err := os.Executable()
	if err != nil {
		return rec, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	report, last, _ := bytes.Cut(bytes.TrimRight(out, "\n"), []byte("\n{"))
	os.Stdout.Write(append(report, '\n'))
	if runErr != nil {
		return rec, runErr
	}
	var result struct {
		Attempted int `json:"attempted"`
		Failed    int `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(append([]byte("{"), last...), &result); err != nil {
		return rec, fmt.Errorf("result line: %w", err)
	}
	rec.Attempted, rec.Failed = result.Attempted, result.Failed
	rec.Metrics = make(map[string]float64, len(result.Metrics))
	for name, v := range result.Metrics {
		rec.Metrics[name] = v.Value
	}
	return rec, nil
}

// runSets runs every workload `repeat` times (end to end, then traced when
// asked), each run in its own process, and with repeat > 1 checks that the
// sets agree.
func runSets(seed int64, seconds float64, traced bool, repeat int, out string) error {
	if repeat < 1 {
		return errors.New("-repeat must be at least 1")
	}
	doc := document{Seed: seed, Seconds: seconds}
	for set := 0; set < repeat; set++ {
		for _, mode := range []bool{false, true} {
			if mode && !traced {
				continue
			}
			for _, w := range workloads {
				rec, err := runChild(w, seed, seconds, mode)
				if err != nil {
					return fmt.Errorf("%s: %w", w.Name, err)
				}
				rec.Set = set
				doc.Runs = append(doc.Runs, rec)
			}
		}
	}
	if out != "" {
		raw, err := json.MarshalIndent(doc, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	if repeat > 1 {
		return agreement(doc)
	}
	return nil
}

// values collects the end-to-end readings of one document, keyed by
// workload then metric, in run order.
func (d document) values() map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range d.Runs {
		if r.Traced {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v)
		}
	}
	return out
}

// spread is the width of a set of readings as a share of their median:
// the whole range, which for the handful of runs a document holds is the
// honest stand-in for the distance between quartiles.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (quantile(xs, 1) - quantile(xs, 0)) / m
}

// agreement is the -repeat check: every end-to-end metric of every
// workload must differ between sets by less than its bound, and the exact
// metrics must not differ at all.
func agreement(d document) error {
	vals := d.values()
	bad := 0
	fmt.Printf("\n%-14s %-20s %12s %8s  %s\n", "workload", "metric", "spread", "bound", "verdict")
	for _, w := range workloads {
		for _, m := range endToEnd {
			xs := vals[w.Name][m.Name]
			sp := spread(xs)
			verdict := "ok"
			switch {
			case exactMetrics[m.Name] && sp != 0:
				verdict = "NOT EXACT"
				bad++
			case sp > m.Bound:
				verdict = "DISAGREE"
				bad++
			}
			fmt.Printf("%-14s %-20s %11.3f%% %7.1f%%  %s\n", w.Name, m.Name, 100*sp, 100*m.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metrics disagree between sets of the same code", bad)
	}
	return nil
}

// worsening is how much worse `after` is than `before`, as a share of
// `before`; negative when it improved.
func worsening(m metricDecl, before, after float64) float64 {
	if before == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (before - after) / before
	}
	return (after - before) / before
}

// separated reports whether every reading of one side is strictly on the
// wanted side of every reading of the other.
func separated(m metricDecl, old, cur []float64, curWorse bool) bool {
	for _, a := range old {
		for _, b := range cur {
			w := worsening(m, a, b)
			if curWorse && w <= 0 || !curWorse && w >= 0 {
				return false
			}
		}
	}
	return true
}

// judge classifies one (workload, metric) pairing of two documents.
func judge(m metricDecl, old, cur []float64) (worse float64, verdict string) {
	worse = worsening(m, median(old), median(cur))
	noisy := spread(old) > m.Bound || spread(cur) > m.Bound
	switch {
	case worse > m.Bound && (!noisy || separated(m, old, cur, true)):
		return worse, "REGRESSION"
	case noisy && !separated(m, old, cur, false):
		return worse, "unresolved"
	default:
		return worse, "ok"
	}
}

// compareDocs prints the table of every (workload, end-to-end metric) and
// returns an error when any pairing regressed beyond its bound.
func compareDocs(old, cur document) error {
	ov, cv := old.values(), cur.values()
	regressions := 0
	fmt.Printf("%-14s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "old", "new", "worse", "bound", "verdict")
	for _, w := range workloads {
		for _, m := range endToEnd {
			a, b := ov[w.Name][m.Name], cv[w.Name][m.Name]
			if len(a) == 0 || len(b) == 0 {
				fmt.Printf("%-14s %-20s %14s %14s %9s %7s  missing\n", w.Name, m.Name, "-", "-", "-", "-")
				regressions++
				continue
			}
			worse, verdict := judge(m, a, b)
			if verdict == "REGRESSION" {
				regressions++
			}
			fmt.Printf("%-14s %-20s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n", w.Name, m.Name,
				median(a), median(b), 100*worse, 100*m.Bound, verdict)
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d end-to-end metrics regressed beyond their bounds or are missing", regressions)
	}
	return nil
}

func readDocument(path string) (document, error) {
	var d document
	raw, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(raw, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

func compareFiles(oldPath, newPath string) error {
	old, err := readDocument(oldPath)
	if err != nil {
		return err
	}
	cur, err := readDocument(newPath)
	if err != nil {
		return err
	}
	return compareDocs(old, cur)
}
