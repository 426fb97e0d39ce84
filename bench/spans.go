package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// Track numbers (Chrome trace "tid"s). Spans on one track must nest, so
// work that runs concurrently gets its own track: the main goroutine,
// one track per cell worker or HTTP client, and a pool of tracks for
// storage calls, which arrive from any server goroutine.
const (
	trackMain   = 0
	trackWorker = 1   // + worker or client index
	trackFSBase = 100 // storage calls take the lowest free track from here
)

// tracer keeps a traced run's spans in memory and writes them as Chrome
// trace-event JSON when the run ends, so Perfetto (ui.perfetto.dev) or
// chrome://tracing opens the file. Spans are recorded only around calls the
// benchmark makes into the repository's layers. A nil *tracer records
// nothing, so untraced passes run the same code.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	fsBusy []bool // storage tracks in use, indexed from trackFSBase
}

// span is one timed call: its layer (cat), name, the span that caused it,
// and the op (figure, cell, or request) it belongs to.
type span struct {
	name, cat  string
	parent, op int
	track      int
	start, end time.Duration
}

// spanRef is an open span; the zero value (from a nil tracer) is inert.
type spanRef struct {
	t  *tracer
	id int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span on the given track (or, with track < 0, on a free
// storage track) and returns it; parent and op are span and op ids, 0 for
// none.
func (t *tracer) begin(cat, name string, parent, op, track int) spanRef {
	if t == nil {
		return spanRef{}
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	if track < 0 {
		track = t.takeFSTrack()
	}
	t.spans = append(t.spans, span{name: name, cat: cat, parent: parent, op: op, track: track, start: now, end: -1})
	return spanRef{t: t, id: len(t.spans)}
}

func (t *tracer) takeFSTrack() int {
	for i, busy := range t.fsBusy {
		if !busy {
			t.fsBusy[i] = true
			return trackFSBase + i
		}
	}
	t.fsBusy = append(t.fsBusy, true)
	return trackFSBase + len(t.fsBusy) - 1
}

// ID is the span's id, for children's parent field (0 when untraced).
func (s spanRef) ID() int { return s.id }

// end closes the span.
func (s spanRef) end() {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.t0)
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	sp := &s.t.spans[s.id-1]
	sp.end = now
	if sp.track >= trackFSBase {
		s.t.fsBusy[sp.track-trackFSBase] = false
	}
}

// count reports how many spans were recorded.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes every closed span as a complete ("X") event with
// microsecond timestamps, plus thread-name metadata for each track.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	tracks := map[int]bool{}
	var events []chromeEvent
	for i, sp := range t.spans {
		if sp.end < 0 {
			continue
		}
		tracks[sp.track] = true
		events = append(events, chromeEvent{
			Name: sp.name, Cat: sp.cat, Ph: "X", Pid: 1, Tid: sp.track,
			Ts:   float64(sp.start.Nanoseconds()) / 1e3,
			Dur:  float64((sp.end - sp.start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": i + 1, "parent": sp.parent, "op": sp.op},
		})
	}
	for tr := range tracks {
		events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tr,
			Args: map[string]any{"name": trackName(tr)}})
	}
	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"}
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

func trackName(tr int) string {
	switch {
	case tr == trackMain:
		return "main"
	case tr >= trackFSBase:
		return fmt.Sprintf("storefs %d", tr-trackFSBase)
	default:
		return fmt.Sprintf("worker %d", tr-trackWorker)
	}
}
