package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v", got)
	}
	if got := Mean([]float64{1, 2, 3, 4}); !almost(got, 2.5) {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
}

func TestTrimTop(t *testing.T) {
	xs := []float64{5, 1, 9, 2, 8, 3, 7, 4, 6, 100}
	got := TrimTop(xs, 0.1)
	if len(got) != 9 {
		t.Fatalf("TrimTop kept %d", len(got))
	}
	for _, v := range got {
		if v == 100 {
			t.Fatal("spike not removed")
		}
	}
	if got := TrimTop(xs, 0); len(got) != len(xs) {
		t.Fatal("frac 0 should keep all")
	}
	if got := TrimTop(xs, 1); got != nil {
		t.Fatalf("frac 1 should drop all, got %v", got)
	}
}

// Property: the mean lies between min and max.
func TestMeanBoundsProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		mn, mx := clean[0], clean[0]
		for _, x := range clean {
			mn, mx = math.Min(mn, x), math.Max(mx, x)
		}
		m := Mean(clean)
		return m >= mn-1e-6 && m <= mx+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
