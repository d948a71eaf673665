package eventq

import "testing"

// The BenchmarkQueue suite covers the three shapes the simulator drives the
// queue with: a waiting virtual CPU's requeue-and-grant (one PushPop) at
// steady sizes, pure growth/drain (wake storms), and the fast path's
// per-operation MinTime probe.

func benchCycle(b *testing.B, size int) {
	var q Queue[int]
	for i := 0; i < size; i++ {
		q.Push(int64(i), i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	t := int64(size)
	for i := 0; i < b.N; i++ {
		q.PushPop(t, i)
		t++
	}
}

func BenchmarkQueueCycle16(b *testing.B)   { benchCycle(b, 16) }
func BenchmarkQueueCycle256(b *testing.B)  { benchCycle(b, 256) }
func BenchmarkQueueCycle4096(b *testing.B) { benchCycle(b, 4096) }

func BenchmarkQueueMinTime(b *testing.B) {
	var q Queue[int]
	for i := 0; i < 64; i++ {
		q.Push(int64(i), i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var acc int64
	for i := 0; i < b.N; i++ {
		t, _ := q.MinTime()
		acc += t
	}
	_ = acc
}

func BenchmarkQueueGrowDrain(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var q Queue[int]
		for j := 0; j < 1024; j++ {
			q.Push(int64((j*131)%977), j)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}
}
