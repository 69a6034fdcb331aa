package main

import (
	"fmt"
	"sort"
)

// tailBeyond is how many samples must lie beyond a reported tail
// percentile: fewer would make the percentile one or two unlucky samples.
const tailBeyond = 10

// timing is a set of samples of one timed quantity.
type timing []float64

func (t timing) sorted() []float64 {
	s := append([]float64(nil), t...)
	sort.Float64s(s)
	return s
}

// median returns the middle sample (the mean of the two middle ones for an
// even count).
func (t timing) median() float64 {
	s := t.sorted()
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean (0 for no samples).
func (t timing) mean() float64 {
	if len(t) == 0 {
		return 0
	}
	var sum float64
	for _, v := range t {
		sum += v
	}
	return sum / float64(len(t))
}

// tail returns the highest percentile that has at least tailBeyond
// samples beyond it, and that percentile's label. When that percentile
// would lie below the median (fewer than 2·tailBeyond+1 samples) it
// returns the maximum, labelled "max".
func (t timing) tail() (float64, string) {
	s := t.sorted()
	n := len(s)
	if n == 0 {
		return 0, "max"
	}
	if n <= 2*tailBeyond {
		return s[n-1], "max"
	}
	i := n - 1 - tailBeyond
	return s[i], fmt.Sprintf("p%.6g", 100*float64(i+1)/float64(n))
}
