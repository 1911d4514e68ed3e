package stats

import (
	"math"
	"math/bits"
)

// SelectMedian returns the median of xs: the middle element for odd n,
// the mean of the two middle elements for even n, and 0 for an empty
// slice, in sort.Float64s's order (NaN below every number). It reads xs
// where they are and never writes them, and it allocates nothing. The
// result is the sort-then-index median's, bit for bit, except that a zero
// result carries the sign the key order puts in the middle, and a NaN
// result is the canonical NaN. MedianInPlace, a Hoare selection kept in
// the tests, is its oracle.
//
// It is a radix selection over the readings' order keys (orderKey):
// histogram passes fix 12 key bits at a time, counting only the readings
// whose key agrees with the bits fixed so far, until at most selectCap
// readings remain around the median; selectKth picks among those, copied
// into a buffer on the stack. Where more than selectCap readings share all
// 64 key bits, the median is that key's value. The first pass starts below
// the bits a sample of the readings shares around the median
// (placeDigit), not at the sign and exponent that every reading of a
// power window shares. Each pass reads every reading once: on a
// 50,001-reading power window the median and the MAD take one histogram
// pass and one gather each.
func SelectMedian(xs []float64) float64 { return selectMedian(xs, 0, false) }

// SelectMedianAbs returns the median of |x − c| over xs, the absolute
// deviation the repair's MAD band takes about the median c: the value
// SelectMedian returns for those deviations stored, computed per pass
// instead.
func SelectMedianAbs(xs []float64, c float64) float64 { return selectMedian(xs, c, true) }

const (
	// digitBits is the width of the key digit a histogram pass fixes.
	digitBits = 12
	// selectCap bounds the readings the last step selects among.
	selectCap = 512
)

func selectMedian(xs []float64, c float64, abs bool) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	lo, hi := selectRanks(xs, c, abs, n/2, n%2 == 0)
	if n%2 == 1 {
		return keyValue(hi)
	}
	return (keyValue(lo) + keyValue(hi)) / 2
}

// selectRanks returns the keys of the k-th smallest value of xs (hi) and,
// when pair is set, of the (k−1)-th (lo); the values are xs, or |x − c|
// with abs. Both ranks stay among the candidates, the values whose key
// starts with the bits fixed so far, until a pass splits them between two
// buckets: then lo is the largest key of the one bucket and hi the
// smallest of the next, and one more pass finds both.
//
// The first pass counts the digit below the prefix placeDigit reads off a
// sample, and the values below that prefix's range; when the ranks lie in
// the range, the pass skips the digits every value around them shares.
// When they do not, selection starts over from the top digit.
func selectRanks(xs []float64, c float64, abs bool, k int, pair bool) (lo, hi uint64) {
	var hist histogram
	// The candidates are the values with key>>top == prefix; r is the
	// rank of hi among them.
	prefix, top, r, cands := uint64(0), 64, k, len(xs)
	placed := false
	if cands > selectCap {
		prefix, top, placed = placeDigit(xs, c, abs, k)
	}
	for cands > selectCap {
		if top == 0 {
			// Every candidate carries the same key.
			return prefix, prefix
		}
		width := min(digitBits, top)
		shift := top - width
		below, in := hist.count(xs, c, abs, prefix, uint(top), uint(shift), uint64(1)<<width-1)
		if placed {
			placed = false
			if r = k - below; r < 0 || r >= in || pair && r == 0 {
				// A rank lies outside the sampled range.
				prefix, top, r = 0, 64, k
				continue
			}
		}
		b, before := 0, 0
		for r >= before+hist.at(b) {
			before += hist.at(b)
			b++
		}
		if pair && r == before {
			a := b - 1
			for hist.at(a) == 0 {
				a--
			}
			la, lb := prefix<<width|uint64(a), prefix<<width|uint64(b)
			lo, hi = 0, math.MaxUint64
			for _, x := range xs {
				switch key := valueKey(x, c, abs); key >> shift {
				case la:
					lo = max(lo, key)
				case lb:
					hi = min(hi, key)
				}
			}
			return lo, hi
		}
		prefix, top, r, cands = prefix<<width|uint64(b), shift, r-before, hist.at(b)
	}
	var buf [selectCap]uint64
	m := 0
	for _, x := range xs {
		if key := valueKey(x, c, abs); key>>top == prefix {
			buf[m] = key
			m++
		}
	}
	hi = selectKth(buf[:m], r)
	if pair {
		// selectKth leaves the r smallest keys below index r.
		for _, key := range buf[:r] {
			lo = max(lo, key)
		}
	}
	return lo, hi
}

const (
	// sampleSize is the number of evenly spaced values placeDigit reads.
	sampleSize = 256
	// sampleBand is how many sample ranks on each side of the target the
	// sampled range spans: twice the standard deviation of a median's
	// sample rank, so the range usually holds the target rank.
	sampleBand = 16
)

// placeDigit reads an evenly spaced sample of the values and returns the
// longest key prefix shared by the sample values ranked sampleBand on
// either side of rank k's place: the candidates' prefix and its top for
// selectRanks' first pass, with placed set. A prefix shorter than the top
// digit narrows nothing, and placed is false. It leaves at least one
// digit's width below the prefix.
func placeDigit(xs []float64, c float64, abs bool, k int) (prefix uint64, top int, placed bool) {
	var keys [sampleSize]uint64
	stride := len(xs) / sampleSize
	for i := range keys {
		keys[i] = valueKey(xs[i*stride+stride/2], c, abs)
	}
	j := k * sampleSize / len(xs)
	bhi := selectKth(keys[:], min(j+sampleBand, sampleSize-1))
	blo := selectKth(keys[:], max(j-sampleBand, 0))
	top = bits.Len64(blo ^ bhi)
	if top > 64-digitBits {
		return 0, 64, false
	}
	top = max(top, digitBits)
	return blo >> top, top, true
}

// histogram counts one key digit over the candidates of a pass, in two
// halves that take alternate readings: consecutive readings that land in
// the same bucket then increment different counters, instead of each
// waiting on the store of the one before.
type histogram [2][1 << digitBits]int32

// count clears h and counts digit key>>shift&digit of each value whose
// key has key>>top == prefix, the candidates, and returns how many values'
// keys lie below the candidates' range and how many lie in it. top is in
// [1, 64] (a shift by 64 leaves 0, so at 64 every value is a candidate);
// key>>top and the prefix then fit in 63 bits. The pass takes no branch
// per value: a value outside the range adds 0 to its bucket, and the sign
// bit of key>>top − prefix counts it below.
func (h *histogram) count(xs []float64, c float64, abs bool, prefix uint64, top, shift uint, digit uint64) (below, in int) {
	*h = histogram{}
	shift &= 63
	even, odd := &h[0], &h[1]
	// inRange is 1 when p == prefix and 0 otherwise; isBelow is 1 when
	// p < prefix.
	inRange := func(p uint64) int32 { return int32(((p ^ prefix) - 1) >> 63) }
	isBelow := func(p uint64) int { return int((p - prefix) >> 63) }
	for i := 1; i < len(xs); i += 2 {
		k0, k1 := valueKey(xs[i-1], c, abs), valueKey(xs[i], c, abs)
		i0, i1 := inRange(k0>>top), inRange(k1>>top)
		even[k0>>shift&digit] += i0
		odd[k1>>shift&digit] += i1
		in += int(i0 + i1)
		below += isBelow(k0>>top) + isBelow(k1>>top)
	}
	if len(xs)%2 == 1 {
		key := valueKey(xs[len(xs)-1], c, abs)
		i0 := inRange(key >> top)
		even[key>>shift&digit] += i0
		in += int(i0)
		below += isBelow(key >> top)
	}
	return below, in
}

// at returns the count of bucket b.
func (h *histogram) at(b int) int { return int(h[0][b]) + int(h[1][b]) }

// valueKey is the order key of x, or of |x − c| with abs.
func valueKey(x, c float64, abs bool) uint64 {
	if abs {
		x = math.Abs(x - c)
	}
	return orderKey(x)
}

// orderKey maps x to a key whose unsigned order is sort.Float64s's order
// of the values: every NaN below every number, then −Inf through −0 and
// +0 through +Inf. The sort takes −0 and +0 as equal; their keys differ,
// −0 first, so a zero median has a definite sign. Flipping the sign bit of
// a positive value, or every bit of a negative one, orders the numbers
// with the NaNs outside both infinities; adding nanRotate moves the
// positive NaNs from above +Inf round to the bottom, below the negative
// ones, so no reading needs a NaN test.
func orderKey(x float64) uint64 {
	b := math.Float64bits(x)
	return b ^ (uint64(int64(b)>>63) | 1<<63) + nanRotate
}

const (
	// nanRotate is the count of positive NaN bit patterns.
	nanRotate = 1<<52 - 1
	// minNumberKey is −Inf's key; every NaN's lies below it.
	minNumberKey = 1<<53 - 2
)

// keyValue inverts orderKey; a NaN key returns the canonical NaN.
func keyValue(key uint64) float64 {
	if key < minNumberKey {
		return math.NaN()
	}
	if key -= nanRotate; key&(1<<63) != 0 {
		return math.Float64frombits(key ^ 1<<63)
	}
	return math.Float64frombits(^key)
}
