// Testdata for the nodeterminism analyzer: wall-clock reads, ambient rand,
// and map iteration, each with a legal counterpart.
package nodeterminism

import (
	"math/rand"
	"sort"
	"time"
)

func wallClock() time.Duration {
	start := time.Now()          // want `time\.Now reads the wall clock`
	time.Sleep(time.Millisecond) // want `time\.Sleep reads the wall clock`
	return time.Since(start)     // want `time\.Since reads the wall clock`
}

// durationsAreFine: the time.Duration type and its constants never touch the
// clock.
func durationsAreFine(n int) time.Duration {
	return time.Duration(n) * time.Microsecond
}

func ambientRand() int {
	return rand.Intn(6) // want `rand\.Intn uses the ambient global source`
}

func seeded(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(6)
}

// mentioningTheTypeIsFine: naming rand.Rand reads nothing from the global
// source.
func mentioningTheTypeIsFine(r *rand.Rand) int {
	return r.Intn(6)
}

func mapOrder(m map[string]int) int {
	total := 0
	for _, v := range m { // want `map iteration order is randomized`
		total += v
	}
	return total
}

func collectThenSort(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// collectWithoutSort collects keys but never orders them, so the idiom does
// not apply.
func collectWithoutSort(m map[string]int) []string {
	var keys []string
	for k := range m { // want `map iteration order is randomized`
		keys = append(keys, k)
	}
	return keys
}

func sliceRangeIsFine(s []int) int {
	total := 0
	for _, v := range s {
		total += v
	}
	return total
}
