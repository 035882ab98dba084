package main

import (
	"fmt"
	"strings"

	"ivleague/internal/config"
	"ivleague/internal/figures"
	"ivleague/internal/workload"
)

// cell is one unit of work and one operation for failure accounting: a
// fresh machine running one mix under one scheme, or, for secmem-churn,
// one controller session under one scheme (mix is then empty).
type cell struct {
	mix    workload.Mix
	scheme config.Scheme
}

func (c cell) id() string {
	name := c.mix.Name
	if name == "" {
		name = "churn"
	}
	return name + "/" + c.scheme.String()
}

// benchWorkload is one named workload: a configuration and the cells a
// pass runs back to back on one goroutine.
type benchWorkload struct {
	name  string
	cfg   config.Config
	cells []cell
	churn bool
}

// perfSchemes are the four schemes of the performance figures.
var perfSchemes = []config.Scheme{
	config.SchemeBaseline, config.SchemeIvLeagueBasic,
	config.SchemeIvLeagueInvert, config.SchemeIvLeaguePro,
}

// largeMeasureInstr is large-steady's measured window per thread: three
// times the quick window, about twice L-2's initialization sweep at the
// quick footprint scale, so the metadata path outweighs page mapping.
const largeMeasureInstr = 360_000

var workloadNames = []string{"quick-sweep", "large-steady", "secmem-churn"}

// workloadByName builds a workload for the given seed. Every workload runs
// at the quick-suite configuration (footprint scale 0.25); only the seed
// and, for large-steady, the measured window change.
func workloadByName(name string, seed uint64) (benchWorkload, error) {
	w := benchWorkload{name: name, cfg: figures.Quick().Cfg}
	w.cfg.Sim.Seed = seed
	switch name {
	case "quick-sweep":
		// The cells a researcher regenerates for Figs 15-19: setup, page
		// mapping in the init sweep, the generator and the caches all
		// weigh in, and every scheme is present.
		cells, err := simCells([]string{"S-1", "S-4", "M-2"}, perfSchemes)
		if err != nil {
			return w, err
		}
		w.cells = cells
	case "large-steady":
		// A long window on a large mix: the LLC misses most of the time,
		// so host time goes to the secure read/write path and Pro's hot
		// tracker rather than to setup and page mapping.
		w.cfg.Sim.MeasureInstr = largeMeasureInstr
		cells, err := simCells([]string{"L-2"}, []config.Scheme{
			config.SchemeBaseline, config.SchemeIvLeagueBasic, config.SchemeIvLeaguePro,
		})
		if err != nil {
			return w, err
		}
		w.cells = cells
	case "secmem-churn":
		// A stream sent straight into the controller: it bypasses the
		// generator, page table, core caches and sim, and drives the
		// write path and the NFL/LMM alloc/free path hard.
		w.churn = true
		for _, s := range perfSchemes {
			w.cells = append(w.cells, cell{scheme: s})
		}
	default:
		return w, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(workloadNames, ", "))
	}
	return w, nil
}

func simCells(mixes []string, schemes []config.Scheme) ([]cell, error) {
	var cells []cell
	for _, name := range mixes {
		mix, err := workload.MixByName(name)
		if err != nil {
			return nil, err
		}
		for _, s := range schemes {
			cells = append(cells, cell{mix: mix, scheme: s})
		}
	}
	return cells, nil
}
