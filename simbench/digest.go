package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"reflect"
	"strings"

	"ivleague/internal/atomicio"
	"ivleague/internal/sim"
	"ivleague/internal/stats"
	"ivleague/internal/telemetry"
)

// goldenSeed is the seed whose cell outputs are pinned under golden/.
// Other seeds are checked only for determinism across passes.
const goldenSeed = 42

//go:embed golden
var goldenFS embed.FS

// field is one named simulated output of a cell, rendered exactly.
type field struct{ name, value string }

// simFields renders every sim.Result field plus the controller's state
// digest. Reflection keeps the list complete when Result grows a field;
// %v prints floats in their shortest exact form and maps in key order.
func simFields(res sim.Result, state []byte) []field {
	v := reflect.ValueOf(res)
	t := v.Type()
	fs := make([]field, 0, t.NumField()+1)
	for i := 0; i < t.NumField(); i++ {
		fs = append(fs, field{t.Field(i).Name, fmt.Sprint(v.Field(i).Interface())})
	}
	return append(fs, field{"StateDigest", shortHash(state)})
}

// churnFields renders a churn session's outputs: the summed latency, the
// number of calls, every controller counter and the state digest.
func churnFields(latSum, calls uint64, snap telemetry.Snapshot, state []byte) []field {
	fs := []field{
		{"LatencySum", fmt.Sprint(latSum)},
		{"Calls", fmt.Sprint(calls)},
	}
	for _, n := range snap.CounterNames() {
		fs = append(fs, field{n, fmt.Sprint(snap.Counter(n))})
	}
	return append(fs, field{"StateDigest", shortHash(state)})
}

func shortHash(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// digestOf folds a cell's fields into one short digest.
func digestOf(fs []field) string {
	var b strings.Builder
	for _, f := range fs {
		fmt.Fprintf(&b, "%s=%s\n", f.name, f.value)
	}
	return shortHash([]byte(b.String()))
}

// goldenFile pins every output field of every cell of one workload.
type goldenFile struct {
	Workload string                       `json:"workload"`
	Seed     uint64                       `json:"seed"`
	Cells    map[string]map[string]string `json:"cells"`
}

// loadGolden returns the pinned outputs of a workload, or nil when none
// are pinned yet.
func loadGolden(workload string) (*goldenFile, error) {
	data, err := goldenFS.ReadFile("golden/" + workload + ".json")
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden %s: %w", workload, err)
	}
	return &g, nil
}

// checker decides whether a cell's outputs are correct: equal to the
// pinned fields on the golden seed, and equal to the same cell's first
// pass on every seed.
type checker struct {
	out    io.Writer
	gold   *goldenFile // nil when the seed is not pinned
	first  map[string]string
	fields map[string]map[string]string
}

func newChecker(w benchWorkload, seed uint64, out io.Writer) (*checker, error) {
	c := &checker{out: out, first: map[string]string{}, fields: map[string]map[string]string{}}
	if seed != goldenSeed {
		return c, nil
	}
	g, err := loadGolden(w.name)
	if err != nil {
		return nil, err
	}
	if g != nil && g.Seed != seed {
		return nil, fmt.Errorf("golden %s pins seed %d, want %d", w.name, g.Seed, seed)
	}
	c.gold = g
	return c, nil
}

// check returns an error naming the fields that moved, or nil.
func (c *checker) check(id string, fs []field) error {
	d := digestOf(fs)
	if prev, ok := c.first[id]; ok {
		if prev != d {
			return fmt.Errorf("cell %s: outputs differ between passes of one run (digest %s, then %s)", id, prev, d)
		}
		return nil
	}
	c.first[id] = d
	m := make(map[string]string, len(fs))
	for _, f := range fs {
		m[f.name] = f.value
	}
	c.fields[id] = m
	if c.gold == nil {
		fmt.Fprintf(c.out, "cell %-24s digest %s (unchecked: no pinned outputs for this seed)\n", id, d)
		return nil
	}
	want, ok := c.gold.Cells[id]
	if !ok {
		return fmt.Errorf("cell %s: no pinned outputs", id)
	}
	if moved := movedFields(want, m); len(moved) > 0 {
		return fmt.Errorf("cell %s: outputs moved from the pinned values: %s", id, strings.Join(moved, "; "))
	}
	fmt.Fprintf(c.out, "cell %-24s digest %s (matches pinned outputs)\n", id, d)
	return nil
}

// movedFields lists, in name order, every field whose value differs from
// the pinned one, with both values.
func movedFields(want, got map[string]string) []string {
	names := map[string]bool{}
	for n := range want {
		names[n] = true
	}
	for n := range got {
		names[n] = true
	}
	var moved []string
	for _, n := range stats.SortedKeys(names) {
		w, wok := want[n]
		g, gok := got[n]
		switch {
		case !wok:
			moved = append(moved, fmt.Sprintf("%s (not pinned)", n))
		case !gok:
			moved = append(moved, fmt.Sprintf("%s (missing)", n))
		case w != g:
			moved = append(moved, fmt.Sprintf("%s: pinned %s, got %s", n, w, g))
		}
	}
	return moved
}

// writeGolden pins the outputs this run produced, under dir.
func (c *checker) writeGolden(dir, workload string, seed uint64) error {
	data, err := json.MarshalIndent(goldenFile{Workload: workload, Seed: seed, Cells: c.fields}, "", "  ")
	if err != nil {
		return err
	}
	return atomicio.WriteFile(filepath.Join(dir, workload+".json"), append(data, '\n'), 0o644)
}
