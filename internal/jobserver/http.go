package jobserver

import (
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"strconv"
	"time"

	"emuchick/internal/experiments"
	"emuchick/internal/jobspec"
	"emuchick/internal/kernels"
)

// Handler returns the server's HTTP API:
//
//	GET    /healthz             — liveness probe (also /v1/healthz)
//	GET    /readyz              — readiness probe; 503 during drain (also /v1/readyz)
//	GET    /v1/stats            — job accounting (Stats)
//	GET    /v1/kernels          — registered kernel names and docs
//	GET    /v1/experiments      — registered experiment ids and titles
//	POST   /v1/jobs             — submit a jobspec; 202 + job record,
//	                              503 + Retry-After when shed by admission control,
//	                              500 + the job id when the job runs but its record
//	                              did not persist
//	GET    /v1/jobs             — list jobs in submission order
//	GET    /v1/jobs/{id}        — one job record
//	GET    /v1/jobs/{id}/wait   — long-poll until the job changes or ?timeout=
//	GET    /v1/jobs/{id}/watch  — JSONL stream of snapshots until terminal;
//	                              the final record carries watch_dropped
//	GET    /v1/jobs/{id}/result — the finished result payload (cache bytes)
//	DELETE /v1/jobs/{id}        — cancel a queued or running job
//
// Every response body is JSON; errors are {"error": "..."} with a matching
// status code.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /v1/kernels", s.handleKernels)
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.List())
	})
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/wait", s.handleWait)
	mux.HandleFunc("GET /v1/jobs/{id}/watch", s.handleWatch)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// handleHealthz is liveness: the process is up and serving.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: it flips to 503 once BeginDrain is called, so
// a front-end stops routing new work here before the listener goes away.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleKernels(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		Name   string   `json:"name"`
		Doc    string   `json:"doc"`
		Labels []string `json:"labels"`
	}
	var out []entry
	for _, name := range kernels.Names() {
		k, err := kernels.ByName(name)
		if err != nil {
			continue
		}
		out = append(out, entry{Name: k.Name, Doc: k.Doc, Labels: k.Labels})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		ID    string `json:"id"`
		Title string `json:"title"`
		Paper string `json:"paper"`
	}
	var out []entry
	for _, e := range experiments.All() {
		out = append(out, entry{ID: e.ID, Title: e.Title, Paper: e.Paper})
	}
	writeJSON(w, http.StatusOK, out)
}

// maxSpecBytes bounds a submit body; a spec is a small JSON document, so
// anything near this is abuse, not a job.
const maxSpecBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec jobspec.Spec
	r.Body = http.MaxBytesReader(w, r.Body, maxSpecBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, err)
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	rec, err := s.Submit(spec)
	var over *OverloadError
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, rec)
	case errors.As(err, &over):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(over.RetryAfter)))
		writeError(w, http.StatusServiceUnavailable, err)
	case rec.ID != "":
		// The job was created and runs; only persisting it failed. Name it,
		// so the client can still follow it.
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error(), "id": rec.ID})
	default:
		writeError(w, http.StatusBadRequest, err)
	}
}

// retryAfterSeconds renders a backoff hint as the whole seconds the header
// requires, never below 1.
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errUnknownJob(r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// handleWait long-polls: it returns the job record as soon as its state
// advances past the version the client saw (?version=), or after ?timeout=
// (default 30s) with the current record either way.
func (s *Server) handleWait(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, version, ok := s.Snapshot(id)
	if !ok {
		writeError(w, http.StatusNotFound, errUnknownJob(id))
		return
	}
	since := version
	if q := r.URL.Query().Get("version"); q != "" {
		var v int
		if _, err := jsonNumber(q, &v); err == nil {
			since = v
		}
	}
	timeout := 30 * time.Second
	if q := r.URL.Query().Get("timeout"); q != "" {
		if d, err := time.ParseDuration(q); err == nil && d > 0 {
			timeout = d
		}
	}
	if rec.State.terminal() {
		writeJSON(w, http.StatusOK, rec)
		return
	}
	changed, _ := s.WaitChanged(id, since)
	select {
	case <-changed:
	case <-time.After(timeout):
	case <-r.Context().Done():
	}
	rec, _, _ = s.Snapshot(id)
	writeJSON(w, http.StatusOK, rec)
}

// watchRecord is one /watch NDJSON line: the job snapshot, plus — on the
// final (terminal) line only — how many intermediate updates this stream
// skipped because the job advanced faster than the client drained.
type watchRecord struct {
	Job
	Dropped *int `json:"watch_dropped,omitempty"`
}

// handleWatch streams one JSON line per state change until the job reaches
// a terminal state (progress updates — WAL cells — included). Each write
// runs under Config.WatchWriteTimeout: a client that stalls past it has the
// stream closed (counted in Stats.WatchTimeouts) instead of pinning the
// handler forever. Updates are snapshots, not a log — a slow client skips
// intermediate versions, and the final record's watch_dropped says how many
// (mirroring the trace ChromeWriter's DroppedSamples accounting: degrade by
// shedding detail, and say so).
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, version, ok := s.Snapshot(id)
	if !ok {
		writeError(w, http.StatusNotFound, errUnknownJob(id))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	dropped := 0
	for {
		// Arm the per-write deadline. Recorders and other writers without
		// deadline support return ErrNotSupported; they simply stay unarmed.
		_ = rc.SetWriteDeadline(time.Now().Add(s.cfg.WatchWriteTimeout))
		out := watchRecord{Job: rec}
		if rec.State.terminal() {
			out.Dropped = &dropped
		}
		if err := enc.Encode(out); err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				s.mu.Lock()
				s.stats.WatchTimeouts++
				s.mu.Unlock()
				s.logf("jobserver: watch %s closed: client stalled past %s", id, s.cfg.WatchWriteTimeout)
			}
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		if rec.State.terminal() {
			return
		}
		changed, ok := s.WaitChanged(id, version)
		if !ok {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
		next, nv, ok := s.Snapshot(id)
		if !ok {
			return
		}
		// Every version bump past the one we are about to write was an
		// update this client never saw.
		if nv > version+1 {
			dropped += nv - version - 1
		}
		rec, version = next, nv
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, errUnknownJob(id))
		return
	}
	if rec.State != StateDone {
		writeError(w, http.StatusConflict, errNotDone(id, rec.State))
		return
	}
	data, err := s.ResultBytes(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	// Serve the cached bytes verbatim: identical requests get identical
	// bodies, byte for byte.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.Get(id); !ok { // jobs are never forgotten, so this is exact
		writeError(w, http.StatusNotFound, errUnknownJob(id))
		return
	}
	rec, err := s.Cancel(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

type jobError string

func (e jobError) Error() string { return string(e) }

func errUnknownJob(id string) error {
	return jobError("unknown job " + id)
}

func errNotDone(id string, st State) error {
	return jobError("job " + id + " is " + string(st) + ", not done")
}

// jsonNumber parses a decimal query parameter.
func jsonNumber(s string, dst *int) (int, error) {
	var v int
	if err := json.Unmarshal([]byte(s), &v); err != nil {
		return 0, err
	}
	*dst = v
	return v, nil
}
