package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
)

// median returns the median of xs (the mean of the middle pair for an even
// count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is how many samples must lie beyond the reported tail.
const tailBeyond = 10

// tail returns the highest percentile of xs that has at least tailBeyond
// samples beyond it: the (n−tailBeyond)-th smallest sample, which is the
// percentile 100·(n−tailBeyond)/n. It fails when there are too few samples
// for any percentile to qualify.
func tail(xs []float64) (value, pct float64, err error) {
	n := len(xs)
	if n <= tailBeyond {
		return 0, 0, fmt.Errorf("tail: %d samples, need more than %d", n, tailBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[n-tailBeyond-1], 100 * float64(n-tailBeyond) / float64(n), nil
}

// minMax returns the smallest and largest of xs, or zeros for no samples.
func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// opSeed derives operation i's simulator seed from the run's seed with a
// splitmix64 step, so every operation is the same configuration under its
// own seed and the sequence repeats exactly for a given run seed.
func opSeed(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// enc builds a canonical byte encoding of an operation's virtual-time
// outputs: every field as fixed-width little-endian bits, so two encodings
// are equal exactly when the simulated results are.
type enc struct{ b []byte }

func (e *enc) u(v uint64)  { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) i(v int64)   { e.u(uint64(v)) }
func (e *enc) f(v float64) { e.u(math.Float64bits(v)) }
func (e *enc) s(v string) {
	e.u(uint64(len(v)))
	e.b = append(e.b, v...)
}

// digest hashes a sequence of output encodings, in order.
func digest(outs [][]byte) string {
	h := sha256.New()
	var n [8]byte
	for _, o := range outs {
		binary.LittleEndian.PutUint64(n[:], uint64(len(o)))
		h.Write(n[:])
		h.Write(o)
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}
