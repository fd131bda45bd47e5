package bench_test

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"kreach/internal/bench"
)

func runTables(t *testing.T, tables []string, datasets []string) string {
	t.Helper()
	var buf bytes.Buffer
	r := bench.NewRunner(bench.Config{
		Datasets: datasets,
		Queries:  2000,
		Scale:    20,
		Seed:     1,
		Out:      &buf,
	})
	if err := r.Run(tables); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestAllTablesSmall(t *testing.T) {
	// One metabolic, one cyclic-core, one citation, one hierarchy dataset at
	// 1/20 scale: every table must render every requested row.
	out := runTables(t, []string{"all"}, []string{"AgroCyc", "aMaze", "ArXiv", "Nasa"})
	for _, want := range []string{
		"Table 2", "Table 3", "Table 4", "Table 5",
		"Table 6", "Table 7", "Table 8", "Table 9",
		"AgroCyc", "aMaze", "ArXiv", "Nasa",
		"n-reach", "PTree", "3-hop", "GRAIL", "PWAH",
		"µ-BFS", "µ-dist", "2-hop VC",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	// "all" is the paper's tables and nothing else.
	for _, gone := range []string{"Batch:", "Cache:", "Latency:", "Mutate:", "Neighbors:"} {
		if strings.Contains(out, gone) {
			t.Errorf("output contains removed table %q", gone)
		}
	}
	// Each dataset has one row in each of tables 2,3,4,5,7,8 and 9 (Table 6
	// averages over datasets) → at least 7 times.
	if n := strings.Count(out, "AgroCyc"); n < 7 {
		t.Errorf("AgroCyc appears %d times, want ≥ 7", n)
	}
}

func TestUnknownDataset(t *testing.T) {
	var buf bytes.Buffer
	r := bench.NewRunner(bench.Config{Datasets: []string{"bogus"}, Queries: 10, Scale: 20, Out: &buf})
	if err := r.Run([]string{"2"}); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestUnknownTable(t *testing.T) {
	// Names of serving tables kbench no longer prints must fail loudly, so
	// a stale script errors instead of printing nothing.
	for _, table := range []string{"42", "batch", "cache", "latency", "mutate", "neighbors"} {
		var buf bytes.Buffer
		r := bench.NewRunner(bench.Config{Datasets: []string{"Nasa"}, Queries: 10, Scale: 20, Out: &buf})
		if err := r.Run([]string{table}); err == nil {
			t.Errorf("unknown table %q accepted", table)
		}
	}
}

func TestCaseMixSumsTo100(t *testing.T) {
	out := runTables(t, []string{"8"}, []string{"Xmark"})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last := lines[len(lines)-1]
	fields := strings.Fields(last)
	if fields[0] != "Xmark" || len(fields) != 5 {
		t.Fatalf("unexpected row %q", last)
	}
	sum := 0.0
	for _, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			t.Fatal(err)
		}
		sum += v
	}
	// Case fractions exclude s=t queries, so the sum is ≤ 100 but close.
	if sum < 90 || sum > 100.5 {
		t.Errorf("case mix sums to %.2f", sum)
	}
}
