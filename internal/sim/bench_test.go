package sim

import "testing"

func BenchmarkSchedulerThroughput(b *testing.B) {
	var ln lane
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ln.schedule(event{time: ln.now + 1})
		ln.now = ln.q.pop().time
	}
}

func BenchmarkSchedulerDeepQueue(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var ln lane
		for j := 0; j < 1024; j++ {
			ln.schedule(event{time: float64(1024 - j)})
		}
		for len(ln.q) > 0 {
			ln.q.pop()
		}
	}
}

func BenchmarkTxEnergy(b *testing.B) {
	p := DefaultRadioParams()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += p.TxEnergy(64)
	}
	_ = sink
}
