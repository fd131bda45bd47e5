package main

import (
	"math/rand/v2"
	"testing"
)

// bruteDistances is all-pairs hop distance by repeated relaxation, with
// none of the oracle's machinery.
func bruteDistances(n int, edges []edge) [][]int {
	const far = 1 << 30
	d := make([][]int, n)
	for i := range d {
		d[i] = make([]int, n)
		for j := range d[i] {
			d[i][j] = far
		}
		d[i][i] = 0
	}
	for _, e := range edges {
		d[e.u][e.v] = 1
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d[i][k]+d[k][j] < d[i][j] {
					d[i][j] = d[i][k] + d[k][j]
				}
			}
		}
	}
	return d
}

func TestOracleAgreesWithBruteForce(t *testing.T) {
	el := wattsStrogatz(60, 1, 0.2, 4)
	o := newOracle(el, liveBatches)
	d := bruteDistances(el.n, el.edges)
	for k := 1; k <= 4; k++ {
		for s := 0; s < el.n; s++ {
			out, in := o.ball(int32(s), k, 0, true), o.ball(int32(s), k, 0, false)
			for v := 0; v < el.n; v++ {
				want := d[s][v] <= k
				if got := o.reach(int32(s), int32(v), k, 0); got != want {
					t.Fatalf("reach(%d,%d,k=%d) = %v, brute force says %v", s, v, k, got, want)
				}
				if dist, member := out[int32(v)]; member != (want && v != s) || (member && int(dist) != d[s][v]) {
					t.Fatalf("out-ball of %d at k=%d: vertex %d member=%v dist=%d, brute force dist %d", s, k, v, member, dist, d[s][v])
				}
				if _, member := in[int32(v)]; member != (d[v][s] <= k && v != s) {
					t.Fatalf("in-ball of %d at k=%d: vertex %d member=%v, brute force dist %d", s, k, v, member, d[v][s])
				}
			}
		}
	}
}

// An edge added by batch b exists in states b .. b+liveBatches-1 and in
// no other.
func TestOracleAnswersAsOfAnyState(t *testing.T) {
	el := edgeList{n: 4, edges: []edge{{0, 1}}}
	o := newOracle(el, 2)
	o.recordBatch(1, []edge{{1, 2}})
	o.recordBatch(2, []edge{{2, 3}})
	want := map[int]map[int32]bool{ // state → which of 1,2,3 vertex 0 reaches
		0: {1: true},
		1: {1: true, 2: true},
		2: {1: true, 2: true, 3: true},
		3: {1: true}, // batch 3 removed (1,2); (2,3) is cut off with it
		4: {1: true},
	}
	for state, reached := range want {
		for v := int32(1); v <= 3; v++ {
			if got := o.reach(0, v, 3, state); got != reached[v] {
				t.Errorf("state %d: reach(0,%d) = %v, want %v", state, v, got, reached[v])
			}
		}
	}
	if !o.reach(2, 3, 1, 3) || o.reach(2, 3, 1, 4) {
		t.Error("edge (2,3) of batch 2 should be live in state 3 and gone in state 4")
	}
}

// A corrupted answer stream must lower ok_ratio, and a refused request
// must count against it in full.
func TestCorruptedAnswersAreCaught(t *testing.T) {
	el := wattsStrogatz(2000, 2, 0.05, 11)
	o := newOracle(el, liveBatches)
	rng := rand.New(rand.NewPCG(11, 11))
	pairs := make([][2]int32, 64*sampleEvery)
	truth := make([]bool, len(pairs))
	for i := range pairs {
		s := int32(rng.IntN(el.n))
		pairs[i] = [2]int32{s, (s + int32(rng.IntN(6))) % int32(el.n)}
		truth[i] = o.reach(pairs[i][0], pairs[i][1], 3, 0)
	}

	var honest tally
	o.checkPairs(&honest, pairs, truth, 3, 0, 0, 0)
	if honest.okRatio() != 1 || honest.checked != 64 {
		t.Fatalf("honest stream: ok_ratio %v with %d checked, want 1 with 64", honest.okRatio(), honest.checked)
	}

	lying := append([]bool(nil), truth...)
	for i := 0; i < len(lying); i += 4 * sampleEvery {
		lying[i] = !lying[i]
	}
	var caught tally
	o.checkPairs(&caught, pairs, lying, 3, 0, 0, 0)
	if caught.okRatio() >= 1 || caught.failed != 16 {
		t.Errorf("corrupted stream: ok_ratio %v, %d failed; want below 1 with 16 failed", caught.okRatio(), caught.failed)
	}

	var refused tally
	o.checkPairs(&refused, pairs, nil, 3, 0, 0, 0)
	if refused.failed != len(pairs) {
		t.Errorf("refused request: %d of %d counted as failed", refused.failed, len(pairs))
	}

	// A ball with one member missing, and one with a wrong bucket.
	want := o.ball(0, 2, 0, true)
	var members []ballMember
	for v, d := range want {
		members = append(members, ballMember{id: v, frontier: d == 2})
	}
	var balls tally
	o.checkBall(&balls, 0, 2, 0, true, members)
	if balls.failed != 0 {
		t.Fatalf("honest ball rejected: %s", balls.firstFailure)
	}
	o.checkBall(&balls, 0, 2, 0, true, members[1:])
	members[0].frontier = !members[0].frontier
	o.checkBall(&balls, 0, 2, 0, true, members)
	if balls.failed != 2 {
		t.Errorf("%d of 2 corrupted balls caught", balls.failed)
	}
}

// -selfcheck judges spreads the way the benchmark's own judge does, with
// Python's statistics.quantiles(values, n=4); these are its answers.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, [3]float64{1.25, 3.5, 5.75}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
