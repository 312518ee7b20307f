package main

import (
	"math"
	"sort"
	"time"
)

// samples is one named series of measurements behind a reported
// median or percentile. The count is printed beside every summary.
type samples []float64

func (s samples) sorted() []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

// median returns the middle value (mean of the two middle values for
// an even count), or 0 for an empty series.
func (s samples) median() float64 { return s.quantile(0.5) }

// quantile returns the q-quantile by linear interpolation between
// order statistics, or 0 for an empty series.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := s.sorted()
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return c[lo] + (c[hi]-c[lo])*(pos-float64(lo))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func secs(d time.Duration) float64 { return d.Seconds() }
