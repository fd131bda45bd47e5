package bitvec

import (
	"math/rand/v2"
	"testing"
)

// Kernel microbenchmarks. CI runs these with -benchtime=1x as a compile
// and API-drift guard (make bench-smoke); run with -benchtime=2s for real
// numbers. Sizes model a few-thousand-vertex cover: 64 words = 4096 lanes.

const benchWords = 64

func benchRow() (WeightRow, []uint64) {
	rng := rand.New(rand.NewPCG(46, 47))
	n := benchWords * 64
	r := NewWeightRow(n)
	mask := make([]uint64, RowWords(n))
	for i := 0; i < n; i++ {
		if v := rng.IntN(6); v <= 3 {
			r.Set(i, uint8(v)&3)
		}
		if rng.IntN(3) == 0 {
			SetBit(mask, i)
		}
	}
	return r, mask
}

func BenchmarkWeightRowAnyLEMasked(b *testing.B) {
	r, mask := benchRow()
	// Clear every ≤1 lane under the mask so the scan never exits early.
	r.IterateEQ(0, func(i int) {
		if TestBit(mask, i) {
			ClearBit(mask, i)
		}
	})
	r.IterateEQ(1, func(i int) {
		if TestBit(mask, i) {
			ClearBit(mask, i)
		}
	})
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		sinkBool = r.AnyLEMasked(mask, 1)
	}
}

func BenchmarkWeightRowCountLEMasked(b *testing.B) {
	r, mask := benchRow()
	for n := 0; n < b.N; n++ {
		sinkInt = r.CountLEMasked(mask, 2)
	}
}

func BenchmarkWeightRowIterateEQ(b *testing.B) {
	r, _ := benchRow()
	for n := 0; n < b.N; n++ {
		total := 0
		r.IterateEQ(1, func(i int) { total += i })
		sinkInt = total
	}
}

// Sinks defeat dead-code elimination without atomic overhead.
var (
	sinkInt  int
	sinkBool bool
)
