package trace

import "emuchick/internal/sim"

// Aggregator is the in-memory sink: it reduces the event stream to
// per-nodelet time series — migrations, spawns and channel words per time
// bucket — plus gauge high-water marks, without retaining individual events. Experiments
// use it to ask questions like "which nodelet's migration rate spiked while
// bandwidth collapsed" that end-of-run counters cannot answer.
//
// An Aggregator may observe several consecutive runs (an experiment sweep
// attaches one observer to every cell); each run's simulated clock restarts
// at zero, so buckets accumulate run-aligned totals and Runs reports how
// many runs contributed.
type Aggregator struct {
	bucket sim.Time

	cells    [][]BucketCounts // [nodelet][bucket]
	nbuckets int              // high-water bucket count across nodelets
	runs     int

	peakWaiters  []int
	peakBacklog  []sim.Time
	peakContexts []int
}

// BucketCounts are the event totals of one (nodelet, time-bucket) cell.
type BucketCounts struct {
	MigrationsOut uint64 // departures from this nodelet (by departure time)
	MigrationsIn  uint64 // arrivals at this nodelet (by arrival time)
	Spawns        uint64 // threads created on this nodelet
	Words         uint64 // 8-byte words this nodelet's channel served
}

// DefaultBucket is the time-bucket width NewAggregator uses for width <= 0.
const DefaultBucket = sim.Microsecond

// NewAggregator returns an aggregator with the given bucket width
// (width <= 0 selects DefaultBucket).
func NewAggregator(width sim.Time) *Aggregator {
	if width <= 0 {
		width = DefaultBucket
	}
	return &Aggregator{bucket: width}
}

// Bucket reports the bucket width.
func (a *Aggregator) Bucket() sim.Time { return a.bucket }

// Runs reports how many System runs fed the aggregator.
func (a *Aggregator) Runs() int { return a.runs }

// Nodelets reports the number of nodelets seen.
func (a *Aggregator) Nodelets() int { return len(a.cells) }

// Buckets reports the number of time buckets of the longest-running nodelet.
func (a *Aggregator) Buckets() int { return a.nbuckets }

// cell returns the bucket cell for (nl, t), growing storage as needed.
func (a *Aggregator) cell(nl int, t sim.Time) *BucketCounts {
	for len(a.cells) <= nl {
		a.cells = append(a.cells, nil)
		a.peakWaiters = append(a.peakWaiters, 0)
		a.peakBacklog = append(a.peakBacklog, 0)
		a.peakContexts = append(a.peakContexts, 0)
	}
	b := int(t / a.bucket)
	row := a.cells[nl]
	for len(row) <= b {
		row = append(row, BucketCounts{})
	}
	a.cells[nl] = row
	if b+1 > a.nbuckets {
		a.nbuckets = b + 1
	}
	return &a.cells[nl][b]
}

// Event implements Observer.
func (a *Aggregator) Event(e Event) {
	switch e.Kind {
	case KindRunBegin:
		a.runs++
	case KindMigrate:
		a.cell(e.Nodelet, e.Time).MigrationsOut++
		a.cell(e.Target, e.End).MigrationsIn++
	case KindSpawn:
		a.cell(e.Target, e.End).Spawns++
	case KindLoad, KindStore:
		a.cell(e.Nodelet, e.Time).Words++
	case KindRemoteStore, KindAtomic:
		// Served by the word's home channel.
		home := e.Target
		if home < 0 {
			home = e.Nodelet
		}
		a.cell(home, e.Time).Words++
	}
}

// Sample implements Observer, retaining gauge high-water marks.
func (a *Aggregator) Sample(s Sample) {
	a.cell(s.Nodelet, s.Time) // ensure the nodelet row exists
	if s.ContextWaiters > a.peakWaiters[s.Nodelet] {
		a.peakWaiters[s.Nodelet] = s.ContextWaiters
	}
	if s.ContextsUsed > a.peakContexts[s.Nodelet] {
		a.peakContexts[s.Nodelet] = s.ContextsUsed
	}
	if s.ChannelBacklog > a.peakBacklog[s.Nodelet] {
		a.peakBacklog[s.Nodelet] = s.ChannelBacklog
	}
}

// Cells returns a copy of one nodelet's bucket row (empty for an unseen
// nodelet), padded to the aggregator's bucket high-water mark.
func (a *Aggregator) Cells(nl int) []BucketCounts {
	out := make([]BucketCounts, a.nbuckets)
	if nl >= 0 && nl < len(a.cells) {
		copy(out, a.cells[nl])
	}
	return out
}

// PeakContextWaiters reports the worst context-slot queue observed on nl.
func (a *Aggregator) PeakContextWaiters(nl int) int {
	if nl < 0 || nl >= len(a.peakWaiters) {
		return 0
	}
	return a.peakWaiters[nl]
}

// PeakChannelBacklog reports the worst channel backlog observed on nl.
func (a *Aggregator) PeakChannelBacklog(nl int) sim.Time {
	if nl < 0 || nl >= len(a.peakBacklog) {
		return 0
	}
	return a.peakBacklog[nl]
}

// TotalMigrations sums departures across nodelets and buckets.
func (a *Aggregator) TotalMigrations() uint64 {
	var total uint64
	for _, row := range a.cells {
		for _, c := range row {
			total += c.MigrationsOut
		}
	}
	return total
}

// TotalWords sums channel word traffic across nodelets and buckets.
func (a *Aggregator) TotalWords() uint64 {
	var total uint64
	for _, row := range a.cells {
		for _, c := range row {
			total += c.Words
		}
	}
	return total
}

// PeakMigrationsPerSec reports the machine-wide migration rate of the
// busiest bucket.
func (a *Aggregator) PeakMigrationsPerSec() float64 {
	best := uint64(0)
	for b := 0; b < a.nbuckets; b++ {
		var sum uint64
		for _, row := range a.cells {
			if b < len(row) {
				sum += row[b].MigrationsOut
			}
		}
		if sum > best {
			best = sum
		}
	}
	return float64(best) / a.bucket.Seconds()
}
