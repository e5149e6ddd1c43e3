package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"dramtherm/internal/obs"
)

// JobKind tags what a job executes.
type JobKind string

const (
	// JobRun is one asynchronous single-spec run.
	JobRun JobKind = "run"
	// JobSweep is one asynchronous multi-spec sweep.
	JobSweep JobKind = "sweep"
	// JobSearch is one asynchronous adaptive search: rounds of sweeps
	// run by Engine.Search. Its Total is the
	// candidate count; Done counts spec executions across all rounds,
	// so it can exceed Total when survivors re-run at higher rungs.
	JobSearch JobKind = "search"
)

// JobStatus is the lifecycle state of a job.
type JobStatus string

const (
	JobRunning   JobStatus = "running"
	JobDone      JobStatus = "done"
	JobError     JobStatus = "error"
	JobCancelled JobStatus = "cancelled"
)

// Terminal reports whether the status is final.
func (s JobStatus) Terminal() bool { return s != JobRunning }

// JobEvent is one entry of a job's retained event log: the job-level
// started/terminal markers plus the per-spec Events forwarded from the
// engine. Seq increases by one per event within a job, so streaming
// clients can resume from a cursor.
type JobEvent struct {
	Seq  int       `json:"seq"`
	Kind string    `json:"kind"` // "started", Event kinds, "done", "error", "cancelled"
	Time time.Time `json:"time"`

	Spec    *Spec   `json:"spec,omitempty"`
	Index   int     `json:"index,omitempty"`
	Done    int     `json:"done,omitempty"`
	Total   int     `json:"total,omitempty"`
	Outcome string  `json:"outcome,omitempty"` // "built", "hit", "joined"
	Peer    string  `json:"peer,omitempty"`    // executing cluster member, if any
	Seconds float64 `json:"seconds,omitempty"`
	Error   string  `json:"error,omitempty"`

	// Adaptive-search round boundaries (round_started/round_finished).
	Round     int     `json:"round,omitempty"`
	Rung      float64 `json:"rung,omitempty"`
	Survivors int     `json:"survivors,omitempty"`
	Pruned    int     `json:"pruned,omitempty"`
}

// JobSnapshot is a point-in-time copy of a job's externally visible
// state, safe to hold and serialize after the job moves on.
type JobSnapshot struct {
	ID        string     `json:"id"`
	Kind      JobKind    `json:"kind"`
	Specs     []Spec     `json:"specs"`
	Status    JobStatus  `json:"status"`
	Error     string     `json:"error,omitempty"`
	Submitted time.Time  `json:"submitted"`
	Finished  *time.Time `json:"finished,omitempty"`
	Done      int        `json:"done"`   // specs finished so far
	Total     int        `json:"total"`  // specs submitted
	Events    int        `json:"events"` // retained event count
	// Result is the payload stored by Finish; its concrete type is
	// whatever the job's owner chose (the HTTP server stores full
	// simulation results and renders summaries at fetch time).
	Result any `json:"-"`
}

// JobsOptions tunes a Jobs registry.
type JobsOptions struct {
	// TTL evicts finished (done/error/cancelled) jobs this long after
	// they finish. <= 0 disables time-based eviction.
	TTL time.Duration
	// MaxJobs bounds the registry. When full, Create evicts the oldest
	// finished jobs; if every job is still running, Create fails.
	// <= 0 selects DefaultMaxJobs.
	MaxJobs int
	// ReapEvery overrides the background reaper period (default TTL/4,
	// clamped to [10ms, 1min]). Ignored when TTL <= 0.
	ReapEvery time.Duration
	// Now overrides the clock, for tests. Defaults to time.Now.
	Now func() time.Time
}

// DefaultMaxJobs bounds a registry whose options leave MaxJobs unset.
const DefaultMaxJobs = 1024

// Jobs is a bounded registry of asynchronous jobs with TTL eviction:
// the job-lifecycle layer between the Engine (which executes specs) and
// a front end like dramthermd (which owns the wire format). Each job
// carries its own cancellable context, a status snapshot, and a
// retained event log that any number of streaming observers can follow
// without missing or reordering events.
type Jobs struct {
	ttl     time.Duration
	maxJobs int
	now     func() time.Time

	mu     sync.Mutex
	nextID int
	jobs   map[string]*Job
	order  []string // creation order, oldest first

	reaper *time.Ticker
	stop   chan struct{}
	once   sync.Once

	evictions *obs.CounterVec // by reason; nil until Instrument
}

// NewJobs builds a registry and, when opts.TTL > 0, starts its
// background reaper. Call Close to stop the reaper.
func NewJobs(opts JobsOptions) *Jobs {
	if opts.MaxJobs <= 0 {
		opts.MaxJobs = DefaultMaxJobs
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	r := &Jobs{
		ttl:     opts.TTL,
		maxJobs: opts.MaxJobs,
		now:     opts.Now,
		jobs:    make(map[string]*Job),
		stop:    make(chan struct{}),
	}
	if opts.TTL > 0 {
		every := opts.ReapEvery
		if every <= 0 {
			every = opts.TTL / 4
		}
		every = min(max(every, 10*time.Millisecond), time.Minute)
		r.reaper = time.NewTicker(every)
		go func() {
			for {
				select {
				case <-r.reaper.C:
					r.Reap()
				case <-r.stop:
					return
				}
			}
		}()
	}
	return r
}

// Close stops the background reaper. Jobs already in the registry stay
// readable; their contexts are not cancelled.
func (r *Jobs) Close() {
	r.once.Do(func() {
		close(r.stop)
		if r.reaper != nil {
			r.reaper.Stop()
		}
	})
}

// Job is one asynchronous run or sweep: a cancellable context, a status
// machine, and an append-only event log. The owner drives it (Publish
// events from engine hooks, then Finish exactly once); observers read
// Snapshot and follow EventsSince.
type Job struct {
	reg  *Jobs
	id   string
	kind JobKind

	ctx    context.Context
	cancel context.CancelFunc

	// All mutable state below is guarded by reg.mu, so snapshots,
	// listings and event appends are mutually consistent.
	specs       []Spec
	status      JobStatus
	errMsg      string
	submitted   time.Time
	finished    *time.Time
	doneSpecs   int
	result      any
	cancelAsked bool

	events  []JobEvent
	changed chan struct{} // closed and replaced on every append
}

// Create registers a running job over the given specs. The job's
// context is derived from base (a server shutting down cancels every
// job) and is additionally cancelled by Cancel or eviction. When the
// registry is full of still-running jobs, Create fails.
func (r *Jobs) Create(base context.Context, kind JobKind, specs []Spec) (*Job, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.jobs) >= r.maxJobs {
		r.evictOldestFinishedLocked(len(r.jobs) - r.maxJobs + 1)
	}
	if len(r.jobs) >= r.maxJobs {
		return nil, fmt.Errorf("sweep: job registry full (%d running jobs)", len(r.jobs))
	}
	r.nextID++
	ctx, cancel := context.WithCancel(base)
	j := &Job{
		reg:       r,
		id:        fmt.Sprintf("%s-%d", kind, r.nextID),
		kind:      kind,
		ctx:       ctx,
		cancel:    cancel,
		specs:     specs,
		status:    JobRunning,
		submitted: r.now(),
		changed:   make(chan struct{}),
	}
	r.jobs[j.id] = j
	r.order = append(r.order, j.id)
	j.publishLocked(JobEvent{Kind: "started", Total: len(specs)})
	return j, nil
}

// Get returns the job with the given id.
func (r *Jobs) Get(id string) (*Job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	return j, ok
}

// Len returns the number of registered jobs.
func (r *Jobs) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.jobs)
}

// List returns snapshots of jobs matching status (""=all), newest
// first, skipping offset matches and returning at most limit (<= 0
// means no limit). total is the match count before pagination.
func (r *Jobs) List(status JobStatus, offset, limit int) (page []JobSnapshot, total int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.order) - 1; i >= 0; i-- {
		j, ok := r.jobs[r.order[i]]
		if !ok || (status != "" && j.status != status) {
			continue
		}
		if total >= offset && (limit <= 0 || len(page) < limit) {
			page = append(page, j.snapshotLocked())
		}
		total++
	}
	return page, total
}

// Cancel ends the job with the given id: a running job has its context
// cancelled (the simulation actually stops; the job transitions to
// cancelled when its owner calls Finish), a finished job is evicted
// immediately. evicted reports which path was taken.
func (r *Jobs) Cancel(id string) (evicted, ok bool) {
	r.mu.Lock()
	j, ok := r.jobs[id]
	if !ok {
		r.mu.Unlock()
		return false, false
	}
	if j.status.Terminal() {
		r.deleteLocked(id)
		r.evictions.WithLabelValues("cancel").Inc()
		r.mu.Unlock()
		return true, true
	}
	j.cancelAsked = true
	r.mu.Unlock()
	j.cancel() // outside the lock: AfterFunc callbacks may run inline
	return false, true
}

// Reap evicts finished jobs older than the TTL. It runs periodically on
// the background reaper and may be called directly (tests, fake
// clocks). It reports how many jobs it evicted.
func (r *Jobs) Reap() int {
	if r.ttl <= 0 {
		return 0
	}
	cutoff := r.now().Add(-r.ttl)
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for id, j := range r.jobs {
		if j.status.Terminal() && j.finished != nil && j.finished.Before(cutoff) {
			r.deleteLocked(id)
			r.evictions.WithLabelValues("ttl").Inc()
			n++
		}
	}
	return n
}

// deleteLocked removes the job and releases its context resources.
func (r *Jobs) deleteLocked(id string) {
	j, ok := r.jobs[id]
	if !ok {
		return
	}
	delete(r.jobs, id)
	for i, oid := range r.order {
		if oid == id {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	j.cancel()
}

// evictOldestFinishedLocked drops up to n finished jobs, oldest first.
func (r *Jobs) evictOldestFinishedLocked(n int) {
	for _, id := range append([]string(nil), r.order...) {
		if n <= 0 {
			return
		}
		if j := r.jobs[id]; j != nil && j.status.Terminal() {
			r.deleteLocked(id)
			r.evictions.WithLabelValues("capacity").Inc()
			n--
		}
	}
}

// ID returns the job identifier.
func (j *Job) ID() string { return j.id }

// Context is the job's lifetime context: cancelled by Cancel, eviction,
// or cancellation of the base context passed to Create. Run the job's
// simulations under it so cancellation actually stops them.
func (j *Job) Context() context.Context { return j.ctx }

// Publish appends one event to the job's log (stamping Seq and Time)
// and wakes streaming observers. The engine's Event hooks adapt
// directly: job.Publish(sweep.JobEventFrom(ev)).
func (j *Job) Publish(ev JobEvent) {
	j.reg.mu.Lock()
	defer j.reg.mu.Unlock()
	j.publishLocked(ev)
}

func (j *Job) publishLocked(ev JobEvent) {
	ev.Seq = len(j.events)
	ev.Time = j.reg.now()
	if ev.Kind == string(EventFinished) || ev.Kind == string(EventError) {
		j.doneSpecs++
	}
	j.events = append(j.events, ev)
	close(j.changed)
	j.changed = make(chan struct{})
}

// JobEventFrom converts an engine Event into a job log entry.
func JobEventFrom(ev Event) JobEvent {
	if ev.Kind == EventRoundStarted || ev.Kind == EventRoundFinished {
		// Round boundaries carry no spec; their payload is the round
		// shape itself.
		return JobEvent{
			Kind:      string(ev.Kind),
			Total:     ev.Total,
			Round:     ev.Round,
			Rung:      ev.Rung,
			Survivors: ev.Survivors,
			Pruned:    ev.Pruned,
		}
	}
	spec := ev.Spec
	out := JobEvent{
		Kind:    string(ev.Kind),
		Spec:    &spec,
		Index:   ev.Index,
		Done:    ev.Done,
		Total:   ev.Total,
		Peer:    ev.Peer,
		Seconds: ev.Seconds,
	}
	if ev.Kind != EventStarted {
		out.Outcome = ev.Outcome.String()
	}
	if ev.Err != nil {
		out.Error = ev.Err.Error()
	}
	return out
}

// Finish moves the job to its terminal status, stores the result
// payload, and publishes the terminal event ("done", "error", or —
// when the error follows a Cancel — "cancelled"). It must be called
// exactly once, by the goroutine driving the job.
func (j *Job) Finish(result any, err error) {
	j.reg.mu.Lock()
	defer j.reg.mu.Unlock()
	if j.status.Terminal() {
		return
	}
	now := j.reg.now()
	j.finished = &now
	ev := JobEvent{Kind: "done", Done: j.doneSpecs, Total: len(j.specs)}
	switch {
	case err == nil:
		j.status = JobDone
		j.result = result
	case j.cancelAsked || (j.ctx.Err() != nil && errIsCancel(err)):
		j.status = JobCancelled
		j.errMsg = err.Error()
		ev.Kind = "cancelled"
		ev.Error = j.errMsg
	default:
		j.status = JobError
		j.errMsg = err.Error()
		ev.Kind = "error"
		ev.Error = j.errMsg
	}
	j.publishLocked(ev)
}

// errIsCancel reports whether err looks like a context cancellation.
func errIsCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Snapshot returns a consistent copy of the job's visible state.
func (j *Job) Snapshot() JobSnapshot {
	j.reg.mu.Lock()
	defer j.reg.mu.Unlock()
	return j.snapshotLocked()
}

func (j *Job) snapshotLocked() JobSnapshot {
	return JobSnapshot{
		ID:        j.id,
		Kind:      j.kind,
		Specs:     j.specs,
		Status:    j.status,
		Error:     j.errMsg,
		Submitted: j.submitted,
		Finished:  j.finished,
		Done:      j.doneSpecs,
		Total:     len(j.specs),
		Events:    len(j.events),
		Result:    j.result,
	}
}

// EventsSince returns the retained events with Seq >= cursor, a channel
// that is closed on the next append, and whether the job has reached a
// terminal status. A streaming observer loops: drain the slice, and if
// not finished, select on changed (plus its own heartbeat/cancel).
func (j *Job) EventsSince(cursor int) (evs []JobEvent, changed <-chan struct{}, finished bool) {
	j.reg.mu.Lock()
	defer j.reg.mu.Unlock()
	if cursor < len(j.events) {
		evs = j.events[cursor:len(j.events):len(j.events)]
	}
	return evs, j.changed, j.status.Terminal()
}
