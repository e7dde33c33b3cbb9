package fresh

import (
	"sync/atomic"
	"testing"

	"repro/internal/model"
)

// certSink keeps the certificates' results live.
var certSink atomic.Uint64

// BenchmarkCertifyReadParallel certifies reads from goroutines spread
// over nine sites, as a cluster's clients do: once with every read of
// the latest version, once with every tenth read one version behind.
func BenchmarkCertifyReadParallel(b *testing.B) {
	const (
		sites = 9
		items = 200 // Table 1's item count
	)
	for _, mix := range []struct {
		name       string
		staleEvery int
	}{{"fresh", 0}, {"stale10pct", 10}} {
		b.Run(mix.name, func(b *testing.B) {
			tr := New(sites)
			for i := 0; i < items; i++ {
				tr.NoteCommit(model.ItemID(i))
			}
			var next atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				site := model.SiteID(next.Add(1) % sites)
				var behind uint64
				for i := 0; pb.Next(); i++ {
					version := uint64(1)
					if mix.staleEvery > 0 && i%mix.staleEvery == 0 {
						version = 0
					}
					behind += tr.CertifyRead(site, model.ItemID(i%items), version).Versions
				}
				certSink.Add(behind)
			})
		})
	}
}
