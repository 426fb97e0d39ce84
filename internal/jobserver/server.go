// Package jobserver is the engine behind cmd/emuserved: a long-running
// simulation service that accepts declarative jobspec requests, multiplexes
// them across a shared bounded worker pool, and serves results from a
// content-addressed cache. It is the ROADMAP's "simulation as a service"
// assembled from the pieces PRs 1-6 built:
//
//   - jobspec.Fingerprint gives every request a content address; finished
//     results are cached under it in memory and in the store's journal,
//     and identical requests — concurrent ones included, via single-flight
//     following — are served without re-simulating.
//   - The PR-4 checkpoint WAL becomes the per-job durable store: every
//     accepted job persists its record and streams completed sweep cells to
//     its own log, so a killed server resumes every in-flight job on
//     restart with byte-identical figures.
//   - PR-4 watchdogs/retries arrive per job through the jobspec QoS block,
//     and the engine Interrupt hook (PR 2) gives cancellation: DELETE
//     cancels one job, shutdown preempts all of them resumably.
package jobserver

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"emuchick/internal/experiments"
	"emuchick/internal/jobspec"
	"emuchick/internal/kernels"
	"emuchick/internal/metrics"
	"emuchick/internal/report"
)

// State is a job's lifecycle phase.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// terminal reports whether no further transitions can happen.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Job is the externally visible job record — the JSON the API serves and
// the store persists.
type Job struct {
	ID   string       `json:"id"`
	Key  string       `json:"key"` // content address of Spec (jobspec fingerprint)
	Spec jobspec.Spec `json:"spec"`
	// State is the lifecycle phase; Source says where a done job's result
	// came from: "simulated", "cache", or "resumed" (simulated, but
	// completed across a server restart from the job's WAL).
	State  State  `json:"state"`
	Source string `json:"source,omitempty"`
	// Cells counts sweep cells recorded to the job's WAL so far — the
	// job's progress signal.
	Cells int `json:"cells,omitempty"`
	// Restarts counts server restarts this job survived.
	Restarts int    `json:"restarts,omitempty"`
	Error    string `json:"error,omitempty"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
}

// Target names what the job runs, for logs and results.
func (r Job) Target() string {
	if r.Spec.Experiment != "" {
		return "experiment:" + r.Spec.Experiment
	}
	return "kernel:" + r.Spec.Kernel
}

// Result is the stable JSON schema of a finished job's payload, stored
// verbatim in the content-addressed cache (so identical requests receive
// byte-identical bytes).
type Result struct {
	Key     string            `json:"key"`
	Target  string            `json:"target"`
	Figures []json.RawMessage `json:"figures,omitempty"`
	// Measurement is the labelled value vector of a kernel job.
	Measurement *kernels.Measurement `json:"measurement,omitempty"`
}

// Stats is the server's job accounting. Simulated counts jobs whose result
// came from actually running simulations; CacheHits counts jobs served from
// the content-addressed cache instead. The cache contract in one line:
// resubmitting an identical spec must bump CacheHits, never Simulated.
type Stats struct {
	Submitted int `json:"submitted"`
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Canceled  int `json:"canceled"`
	Simulated int `json:"simulated"`
	CacheHits int `json:"cache_hits"`
	// Resumed counts jobs re-enqueued at boot that had WAL progress from a
	// previous server life.
	Resumed int `json:"resumed"`
	// Shed counts submits refused by admission control (queue depth,
	// in-flight byte budget, or drain). A shed request allocates nothing: no
	// job id, no record, no Submitted increment — it appears only here.
	Shed int `json:"shed"`
	// WatchTimeouts counts /watch streams the server closed because the
	// client could not drain an update within the write deadline.
	WatchTimeouts int `json:"watch_timeouts"`
}

// OverloadError is the typed refusal admission control returns from Submit;
// the HTTP layer maps it to 503 with a Retry-After header.
type OverloadError struct {
	// Reason says which limit refused the request ("queue full",
	// "in-flight byte budget exhausted", or "draining").
	Reason string
	// RetryAfter is the backoff hint surfaced in the Retry-After header.
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return "jobserver: overloaded: " + e.Reason
}

// Config parameterizes a Server.
type Config struct {
	// DataDir is the durable root (the journal of job records and results,
	// and the per-job WALs).
	DataDir string
	// Workers bounds how many jobs simulate concurrently (<= 0: 2).
	Workers int
	// ParallelPerJob is the sweep worker count given to jobs whose spec
	// does not set one (<= 0: 1); Workers × ParallelPerJob is the server's
	// simulation CPU budget.
	ParallelPerJob int
	// QueueDepth bounds the pending backlog; submits beyond it are shed
	// with an OverloadError (<= 0: 1024).
	QueueDepth int
	// MaxInflightBytes bounds the total encoded-spec bytes of admitted jobs
	// that have not yet reached a terminal state; submits that would exceed
	// it are shed (<= 0: unlimited).
	MaxInflightBytes int64
	// RetryAfter is the backoff hint attached to shed submits
	// (<= 0: 1 second).
	RetryAfter time.Duration
	// WatchWriteTimeout is the per-update write deadline of the /watch
	// NDJSON stream; a client that cannot drain an update within it has its
	// stream closed, with the drop recorded in Stats.WatchTimeouts
	// (<= 0: 10 seconds).
	WatchWriteTimeout time.Duration
	// FS is the filesystem all durable state is written through (nil: the
	// real one). Tests inject a chaos.FS here.
	FS FS
	// CellHook, when non-nil, observes every job progress update — each
	// checkpointed sweep cell as it lands. Tests use it as a deterministic
	// mid-sweep trigger.
	CellHook func(jobID string, cells int)
	// Logf, when non-nil, receives server log lines.
	Logf func(format string, args ...any)
}

// job pairs the persisted record with the runtime state the server needs.
type job struct {
	mu      sync.Mutex
	rec     Job
	version int
	ping    chan struct{} // closed and replaced on every update
	cancel  context.CancelFunc
	// admitted is the byte charge this job holds against the server's
	// in-flight budget; guarded by Server.mu, not job.mu.
	admitted int64
	// saveMu serializes persists of this job's record (the submitter and a
	// worker can both save moments apart; without it an older snapshot could
	// land in the journal after a newer one).
	saveMu sync.Mutex
}

func newJob(rec Job) *job {
	return &job{rec: rec, ping: make(chan struct{})}
}

// snapshot returns a copy of the record and its version.
func (j *job) snapshot() (Job, int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec, j.version
}

// set mutates the record, bumps the version, and wakes watchers.
func (j *job) set(f func(*Job)) Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	f(&j.rec)
	j.version++
	close(j.ping)
	j.ping = make(chan struct{})
	return j.rec
}

// changed returns a channel that is closed once the job's version differs
// from the given one (immediately, if it already does).
func (j *job) changed(version int) <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.version != version {
		ch := make(chan struct{})
		close(ch)
		return ch
	}
	return j.ping
}

// Server is the simulation job service.
type Server struct {
	cfg   Config
	store *store

	mu        sync.Mutex
	jobs      map[string]*job
	order     []string            // submission order
	active    map[string]string   // fingerprint -> in-flight leader job id
	followers map[string][]string // leader id -> identical jobs awaiting its result
	cache     map[string][]byte   // fingerprint -> result bytes (loaded from the journal at boot)
	stats     Stats
	seq       int
	inflight  int64 // encoded-spec bytes of admitted, non-terminal jobs

	draining atomic.Bool // set by BeginDrain; flips /readyz and sheds submits

	queue  chan *job
	root   context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// New opens (or creates) the data directory, re-enqueues every job that was
// queued or running when the previous server died, and starts the worker
// pool.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.ParallelPerJob <= 0 {
		cfg.ParallelPerJob = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.WatchWriteTimeout <= 0 {
		cfg.WatchWriteTimeout = 10 * time.Second
	}
	st, boot, err := openStore(cfg.DataDir, cfg.FS)
	if err != nil {
		return nil, err
	}
	seq, err := st.maxCheckpointSeq()
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:       cfg,
		store:     st,
		jobs:      map[string]*job{},
		active:    map[string]string{},
		followers: map[string][]string{},
		cache:     boot.results,
		seq:       seq,
		queue:     make(chan *job, cfg.QueueDepth),
	}
	s.root, s.cancel = context.WithCancel(context.Background())

	for _, rec := range boot.jobs {
		if n, ok := parseJobID(rec.ID); ok && n > s.seq {
			s.seq = n
		}
		j := newJob(rec)
		s.jobs[rec.ID] = j
		s.order = append(s.order, rec.ID)
		s.stats.Submitted++
		switch rec.State {
		case StateDone:
			s.stats.Completed++
		case StateFailed:
			s.stats.Failed++
		case StateCanceled:
			s.stats.Canceled++
		case StateQueued, StateRunning:
			// Interrupted by the previous server's death: resume. The WAL
			// replays every completed cell, so the rerun is byte-identical
			// to an uninterrupted one.
			if st.hasCheckpoint(rec.ID) {
				s.stats.Resumed++
			}
			rec = j.set(func(r *Job) {
				r.State = StateQueued
				r.Restarts++
				r.Error = ""
			})
			if err := st.saveJob(rec); err != nil {
				s.logf("jobserver: %s restart not persisted: %v", rec.ID, err)
			}
			s.chargeLocked(j, specCost(rec.Spec))
			s.enqueueLocked(j)
		}
	}
	// Logged before the workers start draining the queue and filling the
	// cache.
	s.logf("jobserver: %d workers, %d jobs loaded (%d re-enqueued), %d results cached, %d journal lines skipped",
		cfg.Workers, len(boot.jobs), s.stats.Queued, len(boot.results), boot.skipped)
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// saveJob persists a job's record. Saves of one job are serialized and each
// snapshots at write time, so whichever writer lands last persists the
// newest state — a submitter racing the worker can never overwrite a later
// transition with an earlier one.
func (s *Server) saveJob(j *job) error {
	j.saveMu.Lock()
	defer j.saveMu.Unlock()
	rec, _ := j.snapshot()
	return s.store.saveJob(rec)
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Close preempts every running job (their WALs keep all finished cells),
// stops the worker pool, and closes the journal. Interrupted jobs persist
// as queued, so the next New on the same data directory resumes them.
func (s *Server) Close() error {
	s.cancel()
	s.wg.Wait()
	return s.store.close()
}

// Submit validates and enqueues one request, returning the accepted job
// record. A request whose fingerprint already has a cached result completes
// immediately as a cache hit; one identical to an in-flight job follows
// that job instead of simulating twice.
//
// A non-nil error alongside a record with an ID means the job was created
// and enqueued but persisting its record failed: the job still runs.
//
// Admission control runs before anything is allocated: a request that would
// push the pending backlog past QueueDepth or the admitted-spec bytes past
// MaxInflightBytes — and every request during drain — is shed with an
// *OverloadError, leaving no job id, no record, and no stats trace beyond
// Stats.Shed. Cache hits and single-flight followers consume neither queue
// slots nor budget, so they are admitted even at saturation.
func (s *Server) Submit(spec jobspec.Spec) (Job, error) {
	if err := spec.Validate(); err != nil {
		return Job{}, err
	}
	key := spec.Fingerprint()
	cost := specCost(spec)

	s.mu.Lock()
	if s.draining.Load() {
		return Job{}, s.shedLocked("draining")
	}
	_, cached := s.cache[key]
	_, following := s.active[key]
	if !cached && !following {
		if s.stats.Queued >= s.cfg.QueueDepth {
			return Job{}, s.shedLocked("queue full")
		}
		if s.cfg.MaxInflightBytes > 0 && s.inflight+cost > s.cfg.MaxInflightBytes {
			return Job{}, s.shedLocked("in-flight byte budget exhausted")
		}
	}
	s.seq++
	id := fmt.Sprintf("j%06d", s.seq)
	rec := Job{
		ID: id, Key: key, Spec: spec,
		State: StateQueued, SubmittedAt: time.Now().UTC(),
	}
	j := newJob(rec)
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.stats.Submitted++

	// Content-addressed cache: identical request already answered.
	if cached {
		s.stats.CacheHits++
		s.stats.Completed++
		s.mu.Unlock()
		rec = j.set(func(r *Job) {
			r.State = StateDone
			r.Source = "cache"
			now := time.Now().UTC()
			r.FinishedAt = &now
		})
		err := s.saveJob(j)
		s.logf("jobserver: %s %s served from cache (key %s)", id, rec.Target(), key)
		return rec, err
	}
	// Single-flight: identical request currently in flight.
	if leader, ok := s.active[key]; ok {
		s.followers[leader] = append(s.followers[leader], id)
		s.mu.Unlock()
		err := s.saveJob(j)
		s.logf("jobserver: %s follows in-flight %s (key %s)", id, leader, key)
		return rec, err
	}
	s.active[key] = id
	s.chargeLocked(j, cost)
	if !s.enqueueLocked(j) {
		// Unreachable while QueueDepth == cap(s.queue) and Queued mirrors
		// channel occupancy, but kept as a backstop: fail the record rather
		// than lose it.
		delete(s.active, key)
		s.releaseLocked(j)
		s.stats.Failed++
		s.mu.Unlock()
		rec = j.set(func(r *Job) {
			r.State = StateFailed
			r.Error = "job queue full"
			now := time.Now().UTC()
			r.FinishedAt = &now
		})
		_ = s.saveJob(j)
		return rec, fmt.Errorf("jobserver: queue full (%d pending)", cap(s.queue))
	}
	s.mu.Unlock()
	err := s.saveJob(j)
	s.logf("jobserver: %s accepted %s (key %s)", id, rec.Target(), key)
	return rec, err
}

// shedLocked records one refused submit and builds its error. Caller holds
// s.mu; the lock is released here so shed paths can simply return.
func (s *Server) shedLocked(reason string) error {
	s.stats.Shed++
	s.mu.Unlock()
	s.logf("jobserver: submit shed: %s", reason)
	return &OverloadError{Reason: reason, RetryAfter: s.cfg.RetryAfter}
}

// specCost is the admission charge of one request: the size of its encoded
// spec, the same bytes the store persists.
func specCost(spec jobspec.Spec) int64 {
	b, err := json.Marshal(spec)
	if err != nil {
		return 1
	}
	return int64(len(b))
}

// chargeLocked charges a freshly admitted leader against the in-flight byte
// budget. Caller holds s.mu (or is the single-threaded boot path).
func (s *Server) chargeLocked(j *job, cost int64) {
	j.admitted = cost
	s.inflight += cost
}

// releaseLocked returns a job's admission charge; idempotent. Caller holds
// s.mu.
func (s *Server) releaseLocked(j *job) {
	s.inflight -= j.admitted
	j.admitted = 0
}

// BeginDrain flips the server into drain mode: /readyz starts failing and
// every new submit is shed, while queued and running jobs keep executing.
// Call it ahead of Close so front-ends stop routing before the listener
// goes away.
func (s *Server) BeginDrain() {
	if !s.draining.Swap(true) {
		s.logf("jobserver: draining (submits shed, %d jobs in flight)", s.Stats().Queued+s.Stats().Running)
	}
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// InflightBytes reports the admitted-spec bytes currently charged against
// the budget (tests assert it returns to zero).
func (s *Server) InflightBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflight
}

// enqueueLocked pushes a job onto the bounded queue. Caller holds s.mu.
func (s *Server) enqueueLocked(j *job) bool {
	select {
	case s.queue <- j:
		s.stats.Queued++
		return true
	default:
		return false
	}
}

// Get returns one job's snapshot.
func (s *Server) Get(id string) (Job, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return Job{}, false
	}
	rec, _ := j.snapshot()
	return rec, true
}

// List returns every job snapshot in submission order.
func (s *Server) List() []Job {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]Job, 0, len(ids))
	for _, id := range ids {
		if rec, ok := s.Get(id); ok {
			out = append(out, rec)
		}
	}
	return out
}

// Stats returns the current job accounting.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ResultBytes returns a done job's result payload.
func (s *Server) ResultBytes(id string) ([]byte, error) {
	rec, ok := s.Get(id)
	if !ok {
		return nil, fmt.Errorf("jobserver: unknown job %q", id)
	}
	if rec.State != StateDone {
		return nil, fmt.Errorf("jobserver: job %s is %s, not done", id, rec.State)
	}
	s.mu.Lock()
	data, ok := s.cache[rec.Key]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("jobserver: job %s result missing from cache", id)
	}
	return data, nil
}

// Cancel cancels a queued or running job.
func (s *Server) Cancel(id string) (Job, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return Job{}, fmt.Errorf("jobserver: unknown job %q", id)
	}
	j.mu.Lock()
	state := j.rec.State
	cancel := j.cancel
	j.mu.Unlock()
	switch state {
	case StateRunning:
		// The engine Interrupt hook aborts the in-flight simulation; the
		// worker records the terminal state.
		if cancel != nil {
			cancel()
		}
	case StateQueued:
		s.mu.Lock() // as in finish: publish the state with its accounting
		rec := j.set(func(r *Job) {
			r.State = StateCanceled
			r.Error = "canceled before start"
			now := time.Now().UTC()
			r.FinishedAt = &now
		})
		s.stats.Canceled++
		if s.active[rec.Key] == id {
			delete(s.active, rec.Key)
		}
		s.releaseLocked(j)
		s.mu.Unlock()
		s.promoteFollowers(id)
		if err := s.saveJob(j); err != nil {
			return rec, err
		}
	}
	rec, _ := j.snapshot()
	return rec, nil
}

// WaitChanged returns a channel closed when the job's state advances past
// the given version (used by the wait/watch endpoints).
func (s *Server) WaitChanged(id string, version int) (<-chan struct{}, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	return j.changed(version), true
}

// Snapshot returns the record plus its version for watch loops.
func (s *Server) Snapshot(id string) (Job, int, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return Job{}, 0, false
	}
	rec, v := j.snapshot()
	return rec, v, true
}

// worker drains the queue until shutdown.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.root.Done():
			return
		case j := <-s.queue:
			s.mu.Lock()
			s.stats.Queued--
			s.mu.Unlock()
			s.runJob(j)
		}
	}
}

// runJob drives one job to a terminal state (or back to queued on server
// shutdown).
func (s *Server) runJob(j *job) {
	rec, _ := j.snapshot()
	if rec.State != StateQueued {
		return // canceled while waiting in the queue
	}
	ctx, cancel := context.WithCancel(s.root)
	defer cancel()
	j.mu.Lock()
	j.cancel = cancel
	j.mu.Unlock()

	s.mu.Lock()
	s.stats.Running++
	s.mu.Unlock()
	rec = j.set(func(r *Job) {
		r.State = StateRunning
		now := time.Now().UTC()
		r.StartedAt = &now
	})
	_ = s.saveJob(j)

	// A follower promoted after its leader failed — or a request submitted
	// while an identical one was finishing — may find the answer cached by
	// now.
	s.mu.Lock()
	data, hit := s.cache[rec.Key]
	s.mu.Unlock()
	if hit {
		s.finish(j, func(st *Stats) { st.CacheHits++ }, func(r *Job) {
			r.State = StateDone
			r.Source = "cache"
		})
		s.settleFollowers(j, data)
		return
	}

	data, err := s.execute(ctx, j, rec)
	if err != nil {
		switch {
		case s.root.Err() != nil:
			// Server shutdown: park the job back in the queue state; its
			// WAL keeps every finished cell and the next boot resumes it.
			s.mu.Lock()
			s.stats.Running--
			s.mu.Unlock()
			prec := j.set(func(r *Job) {
				r.State = StateQueued
				r.Error = ""
			})
			_ = s.saveJob(j)
			s.logf("jobserver: %s interrupted by shutdown (%d cells durable)", rec.ID, prec.Cells)
		case ctx.Err() != nil:
			s.finish(j, func(st *Stats) { st.Canceled++ }, func(r *Job) {
				r.State = StateCanceled
				r.Error = "canceled"
			})
			s.settleFollowers(j, nil)
		default:
			s.finish(j, func(st *Stats) { st.Failed++ }, func(r *Job) {
				r.State = StateFailed
				r.Error = err.Error()
			})
			s.settleFollowers(j, nil)
			s.logf("jobserver: %s failed: %v", rec.ID, err)
		}
		return
	}

	s.mu.Lock()
	s.cache[rec.Key] = data
	s.mu.Unlock()
	if err := s.store.saveResult(rec.Key, data); err != nil {
		s.logf("jobserver: %s result not persisted: %v", rec.ID, err)
	}
	source := "simulated"
	if rec.Restarts > 0 {
		source = "resumed"
	}
	s.finish(j, func(st *Stats) { st.Simulated++ }, func(r *Job) {
		r.State = StateDone
		r.Source = source
	})
	s.settleFollowers(j, data)
	s.logf("jobserver: %s done (%s, key %s)", rec.ID, source, rec.Key)
}

// finish moves a running job to a terminal state and updates accounting,
// returning the job's admission charge to the in-flight budget. The state is
// published with s.mu held, so a waiter it wakes reads Stats only after the
// accounting for that state has landed.
func (s *Server) finish(j *job, bump func(*Stats), mut func(*Job)) {
	s.mu.Lock()
	rec := j.set(func(r *Job) {
		mut(r)
		now := time.Now().UTC()
		r.FinishedAt = &now
	})
	s.stats.Running--
	if rec.State == StateDone {
		s.stats.Completed++
	}
	bump(&s.stats)
	s.releaseLocked(j)
	s.mu.Unlock()
	_ = s.saveJob(j)
}

// settleFollowers resolves the single-flight group after its leader reached
// a terminal state: with a result, every follower completes as a cache hit;
// without one, the first follower is promoted to a fresh leader and
// re-enqueued (the rest keep following it).
func (s *Server) settleFollowers(j *job, data []byte) {
	rec, _ := j.snapshot()
	s.mu.Lock()
	if s.active[rec.Key] == rec.ID {
		delete(s.active, rec.Key)
	}
	ids := s.followers[rec.ID]
	delete(s.followers, rec.ID)
	s.mu.Unlock()
	if len(ids) == 0 {
		return
	}
	if data != nil {
		for _, id := range ids {
			s.mu.Lock()
			f, ok := s.jobs[id]
			s.stats.CacheHits++
			s.stats.Completed++
			s.mu.Unlock()
			if !ok {
				continue
			}
			f.set(func(r *Job) {
				r.State = StateDone
				r.Source = "cache"
				now := time.Now().UTC()
				r.FinishedAt = &now
			})
			_ = s.saveJob(f)
		}
		return
	}
	s.promoteFollowers(rec.ID)
	// Re-enqueue the promoted leader through the normal path.
	s.mu.Lock()
	if leader, ok := s.active[rec.Key]; ok {
		if lj, exists := s.jobs[leader]; exists {
			if !s.enqueueLocked(lj) {
				delete(s.active, rec.Key)
			}
		}
	}
	s.mu.Unlock()
}

// promoteFollowers makes the first follower of the given (terminal) leader
// the new active leader for its key. Caller must not hold s.mu.
func (s *Server) promoteFollowers(leaderID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := s.followers[leaderID]
	if len(ids) == 0 {
		delete(s.followers, leaderID)
		return
	}
	delete(s.followers, leaderID)
	next := ids[0]
	if j, ok := s.jobs[next]; ok {
		rec, _ := j.snapshot()
		s.active[rec.Key] = next
		if len(ids) > 1 {
			s.followers[next] = ids[1:]
		}
		// A promoted follower inherits its leader's admission: it was
		// accepted as a follower (free), so the charge lands now, without a
		// fresh admission check — admitted work is never shed retroactively.
		s.chargeLocked(j, specCost(rec.Spec))
		s.enqueueLocked(j)
	}
}

// onCells is the per-job progress sink, fed by the checkpoint hook.
func (s *Server) onCells(j *job, cells int) {
	rec := j.set(func(r *Job) { r.Cells = cells })
	if s.cfg.CellHook != nil {
		s.cfg.CellHook(rec.ID, cells)
	}
}

// execute runs the simulation behind one job and encodes its result.
func (s *Server) execute(ctx context.Context, j *job, rec Job) ([]byte, error) {
	spec := rec.Spec
	var opts []experiments.Option
	if !spec.Checkpoint.Disable {
		opts = append(opts,
			experiments.WithCheckpoint(s.store.ckptPath(rec.ID)),
			experiments.WithCheckpointFS(s.store.fs),
		)
	}
	if spec.Kernel != "" {
		m, _, err := jobspec.RunKernel(ctx, spec, opts...)
		if err != nil {
			return nil, err
		}
		s.onCells(j, len(m.Values))
		return encodeResult(rec.Key, rec.Target(), nil, &m)
	}

	e, err := experiments.ByID(spec.Experiment)
	if err != nil {
		return nil, err
	}
	specOpts, err := spec.Options()
	if err != nil {
		return nil, err
	}
	if spec.Parallel <= 0 {
		opts = append(opts, experiments.WithParallel(s.cfg.ParallelPerJob))
	}
	if !spec.Checkpoint.Disable {
		opts = append(opts, experiments.WithCheckpointHook(func(recorded int) { s.onCells(j, recorded) }))
	}
	figs, err := e.Run(append(append(specOpts, opts...), experiments.WithContext(ctx))...)
	if err != nil {
		return nil, err
	}
	return encodeResult(rec.Key, rec.Target(), figs, nil)
}

// encodeResult renders the stable result payload. Figures serialize through
// report.FigureJSON — the same bytes emubench -outdir archives — so the
// cache (and the kill-and-restart contract) can be checked by byte
// comparison.
func encodeResult(key, target string, figs []*metrics.Figure, m *kernels.Measurement) ([]byte, error) {
	out := Result{Key: key, Target: target, Measurement: m}
	for _, fig := range figs {
		var buf jsonBuffer
		if err := report.FigureJSON(&buf, fig); err != nil {
			return nil, err
		}
		out.Figures = append(out.Figures, json.RawMessage(buf.b))
	}
	return json.Marshal(out)
}

// jsonBuffer is a minimal io.Writer over a byte slice.
type jsonBuffer struct{ b []byte }

func (w *jsonBuffer) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}
