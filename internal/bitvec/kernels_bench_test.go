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

func BenchmarkWeightRowCountLEMasked(b *testing.B) {
	r, mask := benchRow()
	for n := 0; n < b.N; n++ {
		sinkInt = r.CountLEMasked(mask, 2)
	}
}

// sinkInt defeats dead-code elimination without atomic overhead.
var sinkInt int
