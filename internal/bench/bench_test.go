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
		"Cache:", "celeb hit%", "uniform hit%", "speedup",
		"Mutate:", "oracle errs",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	// Each dataset appears in tables 2,3,4,5,7,8,9, batch, cache and
	// latency → at least 10 times.
	if n := strings.Count(out, "AgroCyc"); n < 10 {
		t.Errorf("AgroCyc appears %d times, want ≥ 10", n)
	}
}

func TestTableCache(t *testing.T) {
	// More queries than the cache-table capacity (8192), so the uniform
	// workload cannot fully fit and the skew difference is observable.
	var buf bytes.Buffer
	r := bench.NewRunner(bench.Config{
		Datasets: []string{"AgroCyc"},
		Queries:  20000,
		Scale:    20,
		Seed:     1,
		Out:      &buf,
	})
	if err := r.Run([]string{"cache"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "AgroCyc") || !strings.Contains(out, "speedup") {
		t.Errorf("cache table malformed:\n%s", out)
	}
	// The steady-state celebrity hit rate must beat the uniform one: the
	// cache exists precisely because of workload skew.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	fields := strings.Fields(lines[len(lines)-1])
	if len(fields) != 6 {
		t.Fatalf("unexpected row %q", lines[len(lines)-1])
	}
	celeb, err1 := strconv.ParseFloat(fields[1], 64)
	uniform, err2 := strconv.ParseFloat(fields[2], 64)
	if err1 != nil || err2 != nil {
		t.Fatalf("unparsable hit rates in %q", lines[len(lines)-1])
	}
	if celeb <= uniform {
		t.Errorf("celebrity hit rate %.1f%% not above uniform %.1f%%", celeb, uniform)
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
	var buf bytes.Buffer
	r := bench.NewRunner(bench.Config{Datasets: []string{"Nasa"}, Queries: 10, Scale: 20, Out: &buf})
	if err := r.Run([]string{"42"}); err == nil {
		t.Fatal("unknown table accepted")
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

func TestTableBatch(t *testing.T) {
	out := runTables(t, []string{"batch"}, []string{"Nasa"})
	if !strings.Contains(out, "seq") || !strings.Contains(out, "batch-1") {
		t.Errorf("batch table missing columns:\n%s", out)
	}
	if !strings.Contains(out, "Nasa") {
		t.Errorf("batch table missing dataset row:\n%s", out)
	}
}

func TestTableMutate(t *testing.T) {
	out := runTables(t, []string{"mutate"}, []string{"Nasa"})
	if !strings.Contains(out, "Nasa") || !strings.Contains(out, "oracle errs") {
		t.Fatalf("mutate table malformed:\n%s", out)
	}
	// The trailing column is the oracle-mismatch count; any nonzero value
	// means the incremental maintenance answered differently from a BFS on
	// the mutated edge set.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	fields := strings.Fields(lines[len(lines)-1])
	if len(fields) == 0 || fields[0] != "Nasa" {
		t.Fatalf("unexpected row %q", lines[len(lines)-1])
	}
	if errs := fields[len(fields)-1]; errs != "0" {
		t.Errorf("mutate table reports %s oracle mismatches, want 0", errs)
	}
}
