package bitvec

import (
	"math/rand/v2"
	"testing"
)

// The kernel tests are differential: every word-parallel operation is
// checked against a naive per-element reference on randomized inputs, so a
// SWAR formula cannot drift from the semantics it compresses.

func TestBitOps(t *testing.T) {
	w := make([]uint64, 3)
	for _, i := range []int{0, 1, 63, 64, 127, 128, 191} {
		if TestBit(w, i) {
			t.Fatalf("bit %d set in zero bitset", i)
		}
		SetBit(w, i)
		if !TestBit(w, i) {
			t.Fatalf("bit %d not set after SetBit", i)
		}
		ClearBit(w, i)
		if TestBit(w, i) {
			t.Fatalf("bit %d still set after ClearBit", i)
		}
	}
}

// randRow fills a WeightRow of n lanes, biasing some lanes to LaneAbsent,
// and returns the per-lane reference values.
func randRow(rng *rand.Rand, n int) (WeightRow, []uint8) {
	r := NewWeightRow(n)
	ref := make([]uint8, n)
	for i := range ref {
		v := uint8(rng.IntN(6)) // 4,5 → absent: bias toward sparse rows
		if v > 3 {
			v = LaneAbsent
		}
		r.Set(i, v)
		ref[i] = v
	}
	return r, ref
}

func TestWeightRowGetSet(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	for _, n := range []int{1, 63, 64, 65, 200} {
		r, ref := randRow(rng, n)
		for i, want := range ref {
			if got := r.Get(i); got != want {
				t.Fatalf("n=%d lane %d: got %d, want %d", n, i, got, want)
			}
		}
	}
}

func TestWeightRowNewAllAbsent(t *testing.T) {
	r := NewWeightRow(130)
	for i := 0; i < 130; i++ {
		if r.Get(i) != LaneAbsent {
			t.Fatalf("lane %d of fresh row = %d, want LaneAbsent", i, r.Get(i))
		}
	}
}

func TestWeightRowMaskedKernelsDifferential(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.IntN(300)
		r, ref := randRow(rng, n)
		mask := make([]uint64, RowWords(n))
		for i := 0; i < n; i++ {
			if rng.IntN(3) == 0 {
				SetBit(mask, i)
			}
		}
		for max := uint8(0); max <= 2; max++ {
			want := 0
			for i, v := range ref {
				if TestBit(mask, i) && v <= max {
					want++
				}
			}
			if got := r.CountLEMasked(mask, max); got != want {
				t.Fatalf("n=%d max=%d: CountLEMasked = %d, want %d", n, max, got, want)
			}
			if got := r.AnyLEMasked(mask, max); got != (want > 0) {
				t.Fatalf("n=%d max=%d: AnyLEMasked = %v, want %v", n, max, got, want > 0)
			}
		}
	}
}

func TestWeightRowIterateEQDifferential(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.IntN(300)
		r, ref := randRow(rng, n)
		for v := uint8(0); v <= 2; v++ {
			var got []int
			r.IterateEQ(v, func(i int) { got = append(got, i) })
			var want []int
			// IterateEQ scans whole plane words; lanes beyond n are absent
			// (3) by construction and must not appear.
			for i, rv := range ref {
				if rv == v {
					want = append(want, i)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("n=%d v=%d: got %d lanes, want %d", n, v, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d v=%d lane %d: got %d, want %d", n, v, i, got[i], want[i])
				}
			}
		}
	}
}
