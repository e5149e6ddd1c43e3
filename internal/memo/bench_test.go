// Benchmarks for the table: the hit path (every request served from a
// completed entry) and the contended path (many goroutines racing on a
// small key set).
package memo

import (
	"context"
	"fmt"
	"testing"
)

func BenchmarkCacheHit(b *testing.B) {
	c := New[string, int](0)
	key := "hot"
	c.Put(key, 1)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Do(ctx, key, func(context.Context) (int, error) { return 0, nil }); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCacheHitParallel(b *testing.B) {
	c := New[string, int](0)
	const keys = 64
	for i := 0; i < keys; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			key := fmt.Sprintf("k%d", i%keys)
			i++
			if _, _, err := c.Do(ctx, key, func(context.Context) (int, error) { return 0, nil }); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCacheContended races goroutines on a small rotating key set,
// so every Do is either a fresh build, a singleflight join, or a hit —
// the mixed regime a busy dramthermd sees. Allocation count per op is
// the number to watch.
func BenchmarkCacheContended(b *testing.B) {
	c := New[string, int](0)
	ctx := context.Background()
	var epoch int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			// 8 live keys per epoch of 1024 ops; the epoch shift retires
			// old keys so builds keep happening.
			key := fmt.Sprintf("e%d-k%d", (epoch+int64(i))/1024, i%8)
			i++
			if _, _, err := c.Do(ctx, key, func(context.Context) (int, error) { return i, nil }); err != nil {
				b.Fatal(err)
			}
		}
	})
}
