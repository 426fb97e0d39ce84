package xeon

import (
	"fmt"

	"emuchick/internal/sim"
)

// dram models the memory controller: lines interleave across channels,
// each channel has banks with one open row apiece (open-page policy), and
// each line transfer occupies its channel for LineBytes at the channel
// rate. A request to a bank whose open row differs pays the row-miss
// latency and switches the open row — the mechanism behind the paper's
// observation that "an entire DRAM row must be activated for each element
// traversed" under random access.
type dram struct {
	cfg          *Config
	channels     []*sim.Resource
	openRow      [][]int64 // [channel][bank] open row, -1 = closed
	lineTime     sim.Time
	linesPerRow  int64
	rowHits      uint64
	rowMisses    uint64
	linesFetched uint64

	// Power-of-two fast path for locate: when channel count, lines-per-row,
	// and bank count are all powers of two (every realistic geometry), the
	// two divisions and two moduli per access reduce to shifts and masks.
	// pow2 gates the fast path; the slow form remains for odd geometries.
	pow2     bool
	chMask   int64
	chShift  uint
	rowShift uint
	bankMask int64

	// wbCount is per-call scratch for writebackRun's per-channel tally,
	// sized once so bulk writebacks allocate nothing.
	wbCount []int
}

func newDRAM(cfg *Config) *dram {
	d := &dram{
		cfg:         cfg,
		channels:    make([]*sim.Resource, cfg.Channels),
		openRow:     make([][]int64, cfg.Channels),
		lineTime:    sim.TransferTime(int64(cfg.LineBytes), cfg.ChannelBytesPerSec),
		linesPerRow: int64(cfg.RowBytes / cfg.LineBytes),
	}
	for ch := range d.channels {
		d.channels[ch] = sim.NewResource(fmt.Sprintf("dram.ch%d", ch))
		d.openRow[ch] = make([]int64, cfg.BanksPerChannel)
		for b := range d.openRow[ch] {
			d.openRow[ch][b] = -1
		}
	}
	d.wbCount = make([]int, cfg.Channels)
	if isPow2(int64(cfg.Channels)) && isPow2(d.linesPerRow) && isPow2(int64(cfg.BanksPerChannel)) {
		d.pow2 = true
		d.chMask = int64(cfg.Channels - 1)
		d.chShift = log2(int64(cfg.Channels))
		d.rowShift = log2(d.linesPerRow)
		d.bankMask = int64(cfg.BanksPerChannel - 1)
	}
	return d
}

func isPow2(v int64) bool { return v > 0 && v&(v-1) == 0 }

func log2(v int64) uint {
	var s uint
	for v > 1 {
		v >>= 1
		s++
	}
	return s
}

// locate maps a line to its channel, bank, and row: consecutive lines
// interleave across channels (fine-grained interleave, as memory
// controllers do to balance streams), and each channel's consecutive
// lines share a row until the page boundary.
//
//emu:hotpath consulted by every fetch and writeback
func (d *dram) locate(line int64) (ch, bank int, row int64) {
	// Lines come from the bump allocator and are non-negative, so on
	// power-of-two geometries the Euclidean mod/div pairs are mask/shift
	// pairs; the division form stays for odd geometries (and would be the
	// fallback for negative lines, where >> floors but / truncates).
	if d.pow2 && line >= 0 {
		ch = int(line & d.chMask)
		row = line >> d.chShift >> d.rowShift
		bank = int(row & d.bankMask)
		return ch, bank, row
	}
	ch = int(line % int64(d.cfg.Channels))
	if ch < 0 {
		ch += d.cfg.Channels
	}
	perChannel := line / int64(d.cfg.Channels)
	row = perChannel / d.linesPerRow
	bank = int(row % int64(d.cfg.BanksPerChannel))
	return ch, bank, row
}

// fetch books the transfer of one line arriving at the controller at time
// now and returns its completion time.
func (d *dram) fetch(now sim.Time, line int64) sim.Time {
	ch, bank, row := d.locate(line)
	lat := d.cfg.RowHitLatency
	if d.openRow[ch][bank] != row {
		lat = d.cfg.RowMissLatency
		d.openRow[ch][bank] = row
		d.rowMisses++
	} else {
		d.rowHits++
	}
	d.linesFetched++
	_, served := d.channels[ch].Acquire(now, d.lineTime)
	return served + lat
}

// writeback books the transfer of one dirty line back to memory at time
// now. Nobody waits on a writeback; it only consumes channel bandwidth and
// bank row state.
func (d *dram) writeback(now sim.Time, line int64) {
	ch, bank, row := d.locate(line)
	if d.openRow[ch][bank] != row {
		d.rowMisses++
		d.openRow[ch][bank] = row
	} else {
		d.rowHits++
	}
	d.channels[ch].Acquire(now, d.lineTime)
}

// writebackRun books the writeback of the consecutive lines [first, last],
// all arriving at now — the non-temporal store path, where a streaming
// kernel retires a run of full lines without stalling. Bank row state is
// walked line by line (open rows must advance exactly as sequential
// writebacks would), but each channel's transfers are booked with one bulk
// AcquireRun grant, which is exactly equivalent to the per-line Acquire
// calls because every transfer in the run arrives at the same instant with
// the same service time (the channels are independent single-server queues,
// so cross-channel ordering is immaterial).
//
//emu:hotpath the streaming-store fast path; one resource grant per channel per run
func (d *dram) writebackRun(now sim.Time, first, last int64) {
	for ch := range d.wbCount {
		d.wbCount[ch] = 0
	}
	for line := first; line <= last; line++ {
		ch, bank, row := d.locate(line)
		if d.openRow[ch][bank] != row {
			d.rowMisses++
			d.openRow[ch][bank] = row
		} else {
			d.rowHits++
		}
		d.wbCount[ch]++
	}
	for ch, k := range d.wbCount {
		if k > 0 {
			d.channels[ch].AcquireRun(now, d.lineTime, k)
		}
	}
}

// busiestUtilization reports the highest per-channel utilization over the
// window (a saturation indicator).
func (d *dram) busiestUtilization(elapsed sim.Time) float64 {
	best := 0.0
	for _, ch := range d.channels {
		if u := ch.Utilization(elapsed); u > best {
			best = u
		}
	}
	return best
}
