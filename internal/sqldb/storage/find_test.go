package storage

// find_test.go holds FindFrom to its contract: for every directory, probe and
// starting position it returns what a plain binary search returns — the
// starting position changes what the search costs, never what it answers —
// and on a miss the position is the insertion point, so a caller that feeds
// each result into the next search stays near.

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// searchKeys is the reference: the first position whose key is not below key.
func searchKeys(keys []Key, key Key) (int, bool) {
	i := sort.Search(len(keys), func(i int) bool { return !keys[i].Less(key) })
	return i, i < len(keys) && keys[i] == key
}

// checkFindFrom compares one FindFrom call with the reference.
func checkFindFrom(t *testing.T, keys []Key, start int, key Key) int {
	t.Helper()
	want, wantOK := searchKeys(keys, key)
	got, ok := FindFrom(keys, start, key)
	if got != want || ok != wantOK {
		t.Fatalf("FindFrom(%d keys, start %d, %v) = %d, %v; a binary search says %d, %v\nkeys: %v",
			len(keys), start, key, got, ok, want, wantOK, keys)
	}
	return got
}

// randDirectory returns n strictly ascending keys: one-word keys (second word
// zero) or two-word keys whose first word repeats over runs, with gaps on both
// words so that absent probes fall below, between and above.
func randDirectory(rng *rand.Rand, n int, twoWord bool) []Key {
	keys := make([]Key, 0, n)
	k := Key{int64(rng.Intn(40)) - 20, 0}
	for len(keys) < n {
		if !twoWord {
			k[0] += 1 + int64(rng.Intn(3))
		} else if rng.Intn(4) == 0 {
			k = Key{k[0] + 1 + int64(rng.Intn(3)), int64(rng.Intn(5)) - 2}
		} else {
			k[1] += 1 + int64(rng.Intn(3))
		}
		keys = append(keys, k)
	}
	return keys
}

func TestFindFromMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 400; trial++ {
		n := []int{0, 1, 2, 3, 17, 200}[rng.Intn(6)]
		keys := randDirectory(rng, n, trial%2 == 0)
		// near returns a key at or beside row i: the row's own, or one a step
		// away on either word — mostly absent, sometimes the neighbour.
		near := func(i int) Key {
			if n == 0 {
				return Key{int64(rng.Intn(9)) - 4, int64(rng.Intn(3)) - 1}
			}
			k := keys[min(max(i, 0), n-1)]
			switch rng.Intn(5) {
			case 0:
				k[0] += int64(rng.Intn(3)) - 1
			case 1:
				k[1] += int64(rng.Intn(3)) - 1
			}
			return k
		}
		starts := []int{0, -1, math.MinInt, n - 1, n, n + 1, math.MaxInt}

		// Every key and every gap from every kind of start.
		for i := -1; i <= n; i++ {
			for _, start := range append(starts, i, i-1, i+1, rng.Intn(n+1)) {
				checkFindFrom(t, keys, start, near(i))
				if i >= 0 && i < n {
					checkFindFrom(t, keys, start, keys[i])
				}
			}
		}
		checkFindFrom(t, keys, rng.Intn(n+1), Key{math.MinInt64, math.MinInt64})
		checkFindFrom(t, keys, rng.Intn(n+1), Key{math.MaxInt64, math.MaxInt64})

		// Probe sequences carrying the position along, as a scratch does:
		// ascending, descending, repeated and random, the cursor now and then
		// replaced by another table's.
		for _, stride := range []int{1, 3, -1, -4, 0} {
			pos, i := rng.Intn(n+1), rng.Intn(n+1)
			for step := 0; step < 60; step++ {
				if rng.Intn(8) == 0 {
					pos = starts[rng.Intn(len(starts))]
				}
				pos = checkFindFrom(t, keys, pos, near(i))
				if i += stride * rng.Intn(3); stride == 0 && rng.Intn(3) == 0 {
					i = rng.Intn(n + 1)
				}
			}
		}
	}
}

// FuzzFindFrom: the bytes are a directory (sorted and deduplicated here, so
// any input is a valid one), a starting position and a probe.
func FuzzFindFrom(f *testing.F) {
	word := func(vs ...int64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
		return b
	}
	f.Add(word(), 0, int64(0), int64(0))
	f.Add(word(5, 0), -3, int64(5), int64(0))
	f.Add(word(1, 5, 3, 0, 3, 7, 9, 9), 2, int64(3), int64(1))
	f.Add(word(1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0), 1, int64(6), int64(0))
	f.Add(word(1, 0, 2, 0, 3, 0), math.MaxInt, int64(math.MinInt64), int64(-1))
	f.Fuzz(func(t *testing.T, dir []byte, start int, k0, k1 int64) {
		var keys []Key
		for ; len(dir) >= 16; dir = dir[16:] {
			keys = append(keys, Key{int64(binary.LittleEndian.Uint64(dir)), int64(binary.LittleEndian.Uint64(dir[8:]))})
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
		n := 0
		for i, k := range keys {
			if i == 0 || keys[n-1] != k {
				keys[n] = k
				n++
			}
		}
		keys = keys[:n]
		pos := checkFindFrom(t, keys, start, Key{k0, k1})
		// And from where that search ended, for the row beside it.
		if pos < n {
			checkFindFrom(t, keys, pos, keys[pos])
		}
		if pos+1 < n {
			checkFindFrom(t, keys, pos, keys[pos+1])
		}
	})
}
