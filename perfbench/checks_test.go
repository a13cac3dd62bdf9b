package main

import (
	"strings"
	"testing"
)

// paperRows returns figure rows that meet every check: ordered Fig 9
// times and the paper's Table 4 write amplifications.
func paperRows(t *testing.T, pc paperChecks) map[string]figRow {
	t.Helper()
	rows := map[string]figRow{}
	for _, name := range pc.Fig9Order.Variants {
		rows[name] = figRow{capfs: 300, capmm: 200, gpm: 100, capmmBytes: 1000, gpmBytes: 1000}
	}
	for _, r := range pc.Table4.Rows {
		row := rows[r.Workload]
		row.capmmBytes = int64(r.Paper * 1000)
		rows[r.Workload] = row
	}
	return rows
}

func TestPaperChecksHoldOnPaperNumbers(t *testing.T) {
	pc, err := loadPaperChecks()
	if err != nil {
		t.Fatal(err)
	}
	if len(pc.Fig9Order.Variants) != 11 || len(pc.Table4.Rows) == 0 {
		t.Fatalf("paper_checks.json: %d variants, %d table 4 rows", len(pc.Fig9Order.Variants), len(pc.Table4.Rows))
	}
	if v := pc.violations(paperRows(t, pc)); len(v) != 0 {
		t.Fatalf("paper numbers violate the checks: %v", v)
	}
}

func TestViolatedRowFails(t *testing.T) {
	pc, err := loadPaperChecks()
	if err != nil {
		t.Fatal(err)
	}
	rows := paperRows(t, pc)
	kvs := rows["gpKVS"]
	kvs.capmmBytes = kvs.gpmBytes * 30 // 30× against the paper's 39.38× ± 10%
	rows["gpKVS"] = kvs
	db := rows["gpDB(U)"]
	db.gpm = db.capmm + 1 // GPM slower than CAP-mm
	rows["gpDB(U)"] = db
	v := pc.violations(rows)
	if len(v) != 2 || !strings.Contains(v[0], "gpDB(U)") || !strings.Contains(v[1], "gpKVS") {
		t.Fatalf("want one fig 9 and one table 4 violation, got %v", v)
	}
	delete(rows, "PS")
	if v := pc.violations(rows); len(v) != 4 {
		t.Fatalf("a missing variant must fail both checks, got %v", v)
	}
}
