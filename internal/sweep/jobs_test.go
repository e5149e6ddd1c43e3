package sweep

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced time source for TTL tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestJobs(t *testing.T, opts JobsOptions) *Jobs {
	t.Helper()
	r := NewJobs(opts)
	t.Cleanup(r.Close)
	return r
}

func TestJobsTTLReap(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	r := newTestJobs(t, JobsOptions{TTL: time.Minute, Now: clk.now})

	j, err := r.Create(context.Background(), JobRun, []Spec{{Mix: "W1"}})
	if err != nil {
		t.Fatal(err)
	}
	j.Finish(nil, nil)

	clk.advance(30 * time.Second)
	if n := r.Reap(); n != 0 {
		t.Fatalf("reaped %d jobs before TTL", n)
	}
	clk.advance(31 * time.Second)
	if n := r.Reap(); n != 1 {
		t.Fatalf("reaped %d jobs after TTL, want 1", n)
	}
	if _, ok := r.Get(j.ID()); ok {
		t.Fatal("job still present after reap")
	}
	// The evicted job's context is released.
	select {
	case <-j.Context().Done():
	default:
		t.Fatal("evicted job context not cancelled")
	}
}

func TestJobsTTLSparesRunning(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	r := newTestJobs(t, JobsOptions{TTL: time.Minute, Now: clk.now})
	j, err := r.Create(context.Background(), JobRun, []Spec{{Mix: "W1"}})
	if err != nil {
		t.Fatal(err)
	}
	clk.advance(time.Hour)
	if n := r.Reap(); n != 0 {
		t.Fatalf("reaped %d running jobs", n)
	}
	if _, ok := r.Get(j.ID()); !ok {
		t.Fatal("running job evicted")
	}
}

func TestJobsBackgroundReaper(t *testing.T) {
	r := newTestJobs(t, JobsOptions{TTL: 20 * time.Millisecond})
	j, err := r.Create(context.Background(), JobRun, []Spec{{Mix: "W1"}})
	if err != nil {
		t.Fatal(err)
	}
	j.Finish(nil, nil)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := r.Get(j.ID()); !ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("background reaper never evicted the finished job")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestJobsBounded(t *testing.T) {
	r := newTestJobs(t, JobsOptions{MaxJobs: 2})
	a, err := r.Create(context.Background(), JobRun, []Spec{{Mix: "W1"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create(context.Background(), JobRun, []Spec{{Mix: "W2"}}); err != nil {
		t.Fatal(err)
	}
	// Registry full of running jobs: a third must be rejected.
	if _, err := r.Create(context.Background(), JobRun, []Spec{{Mix: "W3"}}); err == nil {
		t.Fatal("Create succeeded past MaxJobs with every job running")
	}
	// Once one finishes, Create evicts it to make room.
	a.Finish(nil, nil)
	c, err := r.Create(context.Background(), JobRun, []Spec{{Mix: "W3"}})
	if err != nil {
		t.Fatalf("Create after finish: %v", err)
	}
	if _, ok := r.Get(a.ID()); ok {
		t.Fatal("oldest finished job not evicted to make room")
	}
	if _, ok := r.Get(c.ID()); !ok {
		t.Fatal("new job missing")
	}
	if r.Len() != 2 {
		t.Fatalf("registry size %d, want 2", r.Len())
	}
}

func TestJobsCancelRunning(t *testing.T) {
	r := newTestJobs(t, JobsOptions{})
	j, err := r.Create(context.Background(), JobRun, []Spec{{Mix: "W1"}})
	if err != nil {
		t.Fatal(err)
	}
	evicted, ok := r.Cancel(j.ID())
	if !ok || evicted {
		t.Fatalf("Cancel = (evicted=%v, ok=%v), want running-cancel path", evicted, ok)
	}
	select {
	case <-j.Context().Done():
	case <-time.After(time.Second):
		t.Fatal("job context not cancelled")
	}
	// The owner observes the cancellation and finishes the job.
	j.Finish(nil, j.Context().Err())
	snap := j.Snapshot()
	if snap.Status != JobCancelled {
		t.Fatalf("status %q, want cancelled", snap.Status)
	}
	evs, _, finished := j.EventsSince(0)
	if !finished {
		t.Fatal("job not terminal after Finish")
	}
	if last := evs[len(evs)-1]; last.Kind != "cancelled" {
		t.Fatalf("terminal event %q, want cancelled", last.Kind)
	}
}

func TestJobsCancelFinishedEvicts(t *testing.T) {
	r := newTestJobs(t, JobsOptions{})
	j, err := r.Create(context.Background(), JobRun, []Spec{{Mix: "W1"}})
	if err != nil {
		t.Fatal(err)
	}
	j.Finish(nil, nil)
	evicted, ok := r.Cancel(j.ID())
	if !ok || !evicted {
		t.Fatalf("Cancel = (evicted=%v, ok=%v), want eviction", evicted, ok)
	}
	if _, ok := r.Get(j.ID()); ok {
		t.Fatal("finished job still present after Cancel")
	}
	if _, ok := r.Cancel("nope"); ok {
		t.Fatal("Cancel of unknown id reported ok")
	}
}

func TestJobsListFilterAndPagination(t *testing.T) {
	r := newTestJobs(t, JobsOptions{})
	var ids []string
	for i := 0; i < 5; i++ {
		j, err := r.Create(context.Background(), JobRun, []Spec{{Mix: fmt.Sprintf("W%d", i+1)}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID())
		if i%2 == 0 {
			j.Finish(nil, nil) // W1, W3, W5 finish
		}
	}
	all, total := r.List("", 0, 0)
	if total != 5 || len(all) != 5 {
		t.Fatalf("List all = %d/%d, want 5/5", len(all), total)
	}
	// Newest first.
	if all[0].ID != ids[4] || all[4].ID != ids[0] {
		t.Fatalf("ordering: %v", all)
	}
	done, total := r.List(JobDone, 0, 0)
	if total != 3 || len(done) != 3 {
		t.Fatalf("List done = %d/%d, want 3/3", len(done), total)
	}
	running, total := r.List(JobRunning, 0, 0)
	if total != 2 || len(running) != 2 {
		t.Fatalf("List running = %d/%d, want 2/2", len(running), total)
	}
	// Pagination: page size 2, second page.
	page, total := r.List("", 2, 2)
	if total != 5 || len(page) != 2 {
		t.Fatalf("page = %d/%d, want 2/5", len(page), total)
	}
	if page[0].ID != ids[2] || page[1].ID != ids[1] {
		t.Fatalf("page content: %+v", page)
	}
	// Offset past the end yields an empty page with the true total.
	page, total = r.List("", 99, 2)
	if total != 5 || len(page) != 0 {
		t.Fatalf("far page = %d/%d, want 0/5", len(page), total)
	}
}

// TestJobsEventStream checks that concurrent publishers never reorder
// or drop events for a streaming observer, and that the terminal event
// is observed last. Run under -race this also proves the locking.
func TestJobsEventStream(t *testing.T) {
	r := newTestJobs(t, JobsOptions{})
	j, err := r.Create(context.Background(), JobSweep, []Spec{{Mix: "W1"}, {Mix: "W2"}})
	if err != nil {
		t.Fatal(err)
	}

	const publishers = 4
	const perPublisher = 25
	go func() {
		var wg sync.WaitGroup
		for p := 0; p < publishers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for k := 0; k < perPublisher; k++ {
					j.Publish(JobEvent{Kind: string(EventStarted), Index: p})
				}
			}(p)
		}
		wg.Wait()
		j.Finish(nil, nil)
	}()

	var got []JobEvent
	cursor := 0
	for {
		evs, changed, finished := j.EventsSince(cursor)
		got = append(got, evs...)
		cursor += len(evs)
		if finished {
			// Drain anything published between the last read and the
			// terminal flag.
			evs, _, _ := j.EventsSince(cursor)
			got = append(got, evs...)
			break
		}
		select {
		case <-changed:
		case <-time.After(5 * time.Second):
			t.Fatal("stream stalled")
		}
	}
	want := 1 + publishers*perPublisher + 1 // started + published + terminal
	if len(got) != want {
		t.Fatalf("observed %d events, want %d", len(got), want)
	}
	for i, ev := range got {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
	if got[0].Kind != "started" || got[len(got)-1].Kind != "done" {
		t.Fatalf("bracketing events: first %q last %q", got[0].Kind, got[len(got)-1].Kind)
	}
}

// TestJobsFinishIdempotent checks a double Finish (e.g. cancel racing
// natural completion) keeps the first terminal state.
func TestJobsFinishIdempotent(t *testing.T) {
	r := newTestJobs(t, JobsOptions{})
	j, err := r.Create(context.Background(), JobRun, []Spec{{Mix: "W1"}})
	if err != nil {
		t.Fatal(err)
	}
	j.Finish("payload", nil)
	j.Finish(nil, context.Canceled)
	snap := j.Snapshot()
	if snap.Status != JobDone || snap.Result != "payload" {
		t.Fatalf("second Finish overwrote terminal state: %+v", snap)
	}
}
