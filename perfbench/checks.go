package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"

	"github.com/gpm-sim/gpm/internal/workloads"
)

// paperChecksJSON holds the paper's numbers and their tolerances.
//
//go:embed paper_checks.json
var paperChecksJSON []byte

type paperChecks struct {
	Fig9Order struct {
		Variants []string `json:"variants"`
	} `json:"fig9_order"`
	Table4 struct {
		Rows []table4Row `json:"rows"`
	} `json:"table4"`
}

type table4Row struct {
	Workload string  `json:"workload"`
	Paper    float64 `json:"paper"`
	Tol      float64 `json:"tol"`
}

func loadPaperChecks() (paperChecks, error) {
	var pc paperChecks
	if err := json.Unmarshal(paperChecksJSON, &pc); err != nil {
		return pc, fmt.Errorf("paper_checks.json: %w", err)
	}
	return pc, nil
}

// figRow is one variant's results under the three figure modes: the Fig 9
// metric in simulated nanoseconds, and the PM bytes written in the
// operation region (Table 4).
type figRow struct {
	capfs, capmm, gpm    float64
	capmmBytes, gpmBytes int64
}

// fig9Metric is the quantity Fig 9 compares: checkpoint time for the
// checkpointing class, the operation region otherwise.
func fig9Metric(r *workloads.Report) float64 {
	if r.Class == "checkpointing" && r.CkptTime > 0 {
		return float64(r.CkptTime)
	}
	return float64(r.OpTime)
}

// checkFigures checks one round of figure runs against the paper and
// returns the summed Fig 9 GPM metric.
func checkFigures(reports map[string]map[workloads.Mode]*workloads.Report) (time.Duration, error) {
	pc, err := loadPaperChecks()
	if err != nil {
		return 0, err
	}
	rows := map[string]figRow{}
	var gpm time.Duration
	for name, byMode := range reports {
		fs, mm, g := byMode[workloads.CAPfs], byMode[workloads.CAPmm], byMode[workloads.GPM]
		if fs == nil || mm == nil || g == nil {
			return 0, fmt.Errorf("figures: %s is missing a mode", name)
		}
		rows[name] = figRow{capfs: fig9Metric(fs), capmm: fig9Metric(mm), gpm: fig9Metric(g), capmmBytes: mm.PMBytes, gpmBytes: g.PMBytes}
		gpm += time.Duration(fig9Metric(g))
	}
	if v := pc.violations(rows); len(v) > 0 {
		return gpm, fmt.Errorf("paper checks failed: %s", strings.Join(v, "; "))
	}
	return gpm, nil
}

// violations lists every paper check the rows break.
func (pc paperChecks) violations(rows map[string]figRow) []string {
	var out []string
	for _, name := range pc.Fig9Order.Variants {
		r, ok := rows[name]
		if !ok {
			out = append(out, fmt.Sprintf("fig 9: no runs of %s", name))
			continue
		}
		if !(r.gpm < r.capmm && r.capmm < r.capfs) {
			out = append(out, fmt.Sprintf("fig 9 %s: want GPM < CAP-mm < CAP-fs in simulated time, got %.0f, %.0f, %.0f ns", name, r.gpm, r.capmm, r.capfs))
		}
	}
	for _, row := range pc.Table4.Rows {
		r, ok := rows[row.Workload]
		if !ok || r.gpmBytes <= 0 {
			out = append(out, fmt.Sprintf("table 4: no GPM PM writes for %s", row.Workload))
			continue
		}
		wa := float64(r.capmmBytes) / float64(r.gpmBytes)
		if math.Abs(wa-row.Paper) > row.Tol*row.Paper {
			out = append(out, fmt.Sprintf("table 4 %s: write amplification %.3f, paper %.2f ± %.0f%%", row.Workload, wa, row.Paper, row.Tol*100))
		}
	}
	return out
}
