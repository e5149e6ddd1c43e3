package gossip

import (
	"context"
	"runtime"
	"testing"
	"time"

	"dramtherm/internal/obs"
)

// TestNodeCloseNoLeak: Close must stop the gossip loop even while a
// round is blocked inside a hung transport — the round context is
// cancelled and the loop goroutine unwinds. Repeated open/close cycles
// must leave the goroutine count where it started.
func TestNodeCloseNoLeak(t *testing.T) {
	runtime.GC()
	baseline := runtime.NumGoroutine()

	for i := 0; i < 5; i++ {
		block := make(chan struct{})
		n, err := NewNode(Config{
			Self:     Member{ID: "self", URL: "mesh://self"},
			Seeds:    []string{"mesh://a", "mesh://b"},
			Interval: time.Millisecond,
			Transport: func(ctx context.Context, url string, msg Message) (Message, error) {
				// A hung member: never answers until the node gives up.
				select {
				case <-ctx.Done():
					return Message{}, ctx.Err()
				case <-block:
					return Message{}, context.Canceled
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond) // let a round block in the transport
		done := make(chan struct{})
		go func() { defer close(done); n.Close() }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("Close wedged behind a hung transport")
		}
		close(block)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked across Close: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMetricsBeforeLoop: Config.Metrics is wired before the background
// loop starts, so a node gossiping from its first tick counts every
// round without a data race (run with -race).
func TestMetricsBeforeLoop(t *testing.T) {
	reg := obs.NewRegistry()
	n, err := NewNode(Config{
		Self:     Member{ID: "self", URL: "mesh://self"},
		Seeds:    []string{"mesh://a"},
		Interval: time.Millisecond,
		Metrics:  reg,
		Transport: func(ctx context.Context, url string, msg Message) (Message, error) {
			return Message{}, context.Canceled
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	deadline := time.Now().Add(5 * time.Second)
	for reg.Sum("dramtherm_gossip_rounds_total", nil) < 3 {
		if time.Now().After(deadline) {
			t.Fatal("the gossip loop never counted its rounds")
		}
		time.Sleep(time.Millisecond)
	}
	if reg.Sum("dramtherm_gossip_exchanges_total", map[string]string{"result": "error"}) == 0 {
		t.Fatal("unanswered seed dials were not counted")
	}
}
