package fresh

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
)

func TestNilTrackerIsNoOp(t *testing.T) {
	var tr *Tracker
	tr.NoteCommit(1)
	tr.NoteApply(0, 1)
	if c := tr.CertifyRead(0, 1, 0); c.Stale() {
		t.Fatalf("nil tracker certified a stale read: %+v", c)
	}
	if c := tr.CertifyFresh(0); c.Stale() {
		t.Fatalf("nil tracker CertifyFresh returned stale: %+v", c)
	}
	tr.StartProbe(time.Millisecond)
	tr.StopProbe()
	if s := tr.Summarize(); s != nil {
		t.Fatalf("nil tracker summarized to %+v, want nil", s)
	}
}

func TestCertifyReadVersionLag(t *testing.T) {
	tr := New(2)
	item := model.ItemID(7)
	tr.NoteCommit(item)
	tr.NoteCommit(item)
	tr.NoteCommit(item)

	c := tr.CertifyRead(1, item, 1)
	if c.Versions != 2 {
		t.Fatalf("read of v1 with latest=3: Versions=%d, want 2", c.Versions)
	}
	if !c.Stale() {
		t.Fatal("2 versions behind but Stale()=false")
	}
	if c.Behind < 0 {
		t.Fatalf("negative Behind %v", c.Behind)
	}
	if c := tr.CertifyRead(1, item, 3); c.Stale() {
		t.Fatalf("read of the latest version certified stale: %+v", c)
	}
	// Unknown item: nothing committed, nothing to be behind.
	if c := tr.CertifyRead(1, model.ItemID(99), 0); c.Stale() {
		t.Fatalf("read of an uncommitted item certified stale: %+v", c)
	}
}

func TestNoteApplySamplesVersionLag(t *testing.T) {
	tr := New(2)
	item := model.ItemID(3)
	tr.NoteCommit(item)
	tr.NoteCommit(item)
	tr.NoteCommit(item)
	tr.NoteApply(1, item) // applied counter 1, latest 3 → lag 2

	s := tr.Summarize()
	if s.Applies != 1 {
		t.Fatalf("Applies=%d, want 1", s.Applies)
	}
	if got := s.VersionLag.Max; got != 2 {
		t.Fatalf("VersionLag.Max=%d, want 2", got)
	}
	// Two more applies catch the replica up: lag samples 1 then 0.
	tr.NoteApply(1, item)
	tr.NoteApply(1, item)
	s = tr.Summarize()
	if s.Applies != 3 || s.VersionLag.Count != 3 {
		t.Fatalf("after catch-up: applies=%d lagSamples=%d, want 3/3", s.Applies, s.VersionLag.Count)
	}
}

func TestSummaryRollsUpSitesAndRates(t *testing.T) {
	tr := New(3)
	item := model.ItemID(1)
	tr.NoteCommit(item)
	tr.NoteCommit(item)
	tr.CertifyFresh(0)
	tr.CertifyFresh(0)
	tr.CertifyRead(2, item, 1) // one version behind → stale

	s := tr.Summarize()
	if s.Reads() != 3 {
		t.Fatalf("Reads()=%d, want 3", s.Reads())
	}
	if s.ReadsFresh != 2 || s.ReadsStale != 1 {
		t.Fatalf("fresh/stale=%d/%d, want 2/1", s.ReadsFresh, s.ReadsStale)
	}
	if pct := s.StaleReadPct(); pct < 33.2 || pct > 33.4 {
		t.Fatalf("StaleReadPct=%f, want ~33.3", pct)
	}
	if len(s.Sites) != 2 {
		t.Fatalf("%d site rows, want 2 (silent site omitted): %+v", len(s.Sites), s.Sites)
	}
	if s.Sites[0].Site != 0 || s.Sites[1].Site != 2 {
		t.Fatalf("site rows out of order: %+v", s.Sites)
	}
	var empty *Summary
	if empty.Reads() != 0 || empty.StaleReadPct() != 0 {
		t.Fatal("nil summary accessors must return zero")
	}
}

// TestSummaryCountsCertificates: the fresh and stale counts come from the
// read version-lag histogram, so they must equal the certificates issued,
// per site and in the totals, whichever call issued them.
func TestSummaryCountsCertificates(t *testing.T) {
	tr := New(2)
	item := model.ItemID(4)
	for i := 0; i < 5; i++ {
		tr.NoteCommit(item)
	}
	// Site 0: 2 fresh reads of the latest version, 1 CertifyFresh, 3
	// stale reads. Site 1: 2 CertifyFresh, 1 stale read 4 versions behind.
	tr.CertifyRead(0, item, 5)
	tr.CertifyRead(0, item, 5)
	tr.CertifyFresh(0)
	for v := uint64(1); v <= 3; v++ {
		tr.CertifyRead(0, item, v)
	}
	tr.CertifyFresh(1)
	tr.CertifyFresh(1)
	tr.CertifyRead(1, item, 1)

	s := tr.Summarize()
	want := []struct{ fresh, stale uint64 }{{3, 3}, {2, 1}}
	if len(s.Sites) != len(want) {
		t.Fatalf("%d site rows, want %d: %+v", len(s.Sites), len(want), s.Sites)
	}
	for i, w := range want {
		if row := s.Sites[i]; row.ReadsFresh != w.fresh || row.ReadsStale != w.stale {
			t.Errorf("site %d fresh/stale = %d/%d, want %d/%d", row.Site, row.ReadsFresh, row.ReadsStale, w.fresh, w.stale)
		}
	}
	if s.ReadsFresh != 5 || s.ReadsStale != 4 || s.Reads() != 9 {
		t.Errorf("totals fresh/stale/reads = %d/%d/%d, want 5/4/9", s.ReadsFresh, s.ReadsStale, s.Reads())
	}
}

func TestProbeSamplesLaggingReplicas(t *testing.T) {
	tr := New(2)
	item := model.ItemID(5)
	tr.NoteCommit(item)
	tr.NoteCommit(item)
	tr.NoteApply(1, item) // behind by one from here on
	before := tr.Summarize().VersionLag.Count
	tr.probe()
	after := tr.Summarize().VersionLag.Count
	if after != before+1 {
		t.Fatalf("probe added %d lag samples, want 1", after-before)
	}
}

func TestHistPercentileBounds(t *testing.T) {
	var h hist
	if got := h.percentile(0.95); got != 0 {
		t.Fatalf("empty hist p95=%d, want 0", got)
	}
	for i := 0; i < 99; i++ {
		h.add(10)
	}
	h.add(1000)
	d := h.dist()
	if d.Count != 100 || d.Max != 1000 {
		t.Fatalf("count/max=%d/%d, want 100/1000", d.Count, d.Max)
	}
	// p50 lands in 10's bucket [8,16): upper bound 15. Conservative
	// within 2×, never below the true value.
	if d.P50 < 10 || d.P50 > 15 {
		t.Fatalf("p50=%d, want in [10,15]", d.P50)
	}
	// p99.. rank 100 hits the max sample's bucket, capped by exact max.
	if d.P99 > 1000 {
		t.Fatalf("p99=%d exceeds exact max", d.P99)
	}
	var m hist
	m.merge(&h)
	if m.dist() != d {
		t.Fatal("merge into empty hist changed the distribution")
	}
}

// TestFreshCertificateTakesNoLock: while another goroutine holds the
// item's shard lock and the site's stat lock, a certificate for the
// latest version and a CertifyFresh both return; a stale certificate
// waits for the locks.
func TestFreshCertificateTakesNoLock(t *testing.T) {
	tr := New(2)
	item := model.ItemID(6)
	tr.NoteCommit(item)
	tr.NoteCommit(item)
	s, ss := &tr.shards[uint(item)%shardCount], tr.site(1)
	s.mu.Lock()
	ss.mu.Lock()

	returns := func(what string, certify func() Cert) {
		t.Helper()
		done := make(chan Cert)
		go func() { done <- certify() }()
		select {
		case c := <-done:
			if c.Stale() {
				t.Fatalf("%s: certified stale: %+v", what, c)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s blocked on a held lock", what)
		}
	}
	returns("CertifyRead of the latest version", func() Cert { return tr.CertifyRead(1, item, 2) })
	returns("CertifyFresh", func() Cert { return tr.CertifyFresh(1) })

	stale := make(chan Cert, 1)
	go func() { stale <- tr.CertifyRead(1, item, 1) }()
	select {
	case c := <-stale:
		t.Fatalf("stale CertifyRead returned %+v while the locks were held", c)
	case <-time.After(20 * time.Millisecond):
	}
	ss.mu.Unlock()
	s.mu.Unlock()
	if c := <-stale; c.Versions != 1 {
		t.Fatalf("stale CertifyRead: Versions=%d, want 1", c.Versions)
	}
	if sum := tr.Summarize(); sum.ReadsFresh != 2 || sum.ReadsStale != 1 {
		t.Fatalf("fresh/stale = %d/%d, want 2/1", sum.ReadsFresh, sum.ReadsStale)
	}
}

// TestCertificatesConservedUnderConcurrency: certifiers on several sites
// race writers calling NoteCommit and NoteApply on the same items. Every
// certificate lands in the summary exactly once, fresh or stale as
// issued, and the two read distributions count the same samples — also
// in summaries taken mid-run.
func TestCertificatesConservedUnderConcurrency(t *testing.T) {
	const (
		sites   = 4
		items   = 8
		commits = 200 // per item, by the writers
		rounds  = 300 // per certifier
	)
	tr := New(sites)
	for i := 0; i < items; i++ {
		tr.NoteCommit(model.ItemID(i))
	}
	// A read of version 0 is stale from the start; one of version
	// 1+commits can never be behind. So each certificate's kind is known.
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < commits/2; n++ {
				for i := 0; i < items; i++ {
					tr.NoteCommit(model.ItemID(i))
					tr.NoteApply(model.SiteID(1+(w+i)%(sites-1)), model.ItemID(i))
				}
			}
		}(w)
	}
	for site := 0; site < sites; site++ {
		wg.Add(1)
		go func(site model.SiteID) {
			defer wg.Done()
			for n := 0; n < rounds; n++ {
				item := model.ItemID(n % items)
				tr.CertifyRead(site, item, 1+commits)
				tr.CertifyRead(site, item, 0)
				tr.CertifyFresh(site)
			}
		}(model.SiteID(site))
	}
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, row := range tr.Summarize().Sites {
				if row.ReadVersionLag.Count != row.ReadTimeLagUS.Count {
					t.Errorf("mid-run site %d: read lag counts %d versions vs %d times",
						row.Site, row.ReadVersionLag.Count, row.ReadTimeLagUS.Count)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-stopped

	s := tr.Summarize()
	if len(s.Sites) != sites {
		t.Fatalf("%d site rows, want %d", len(s.Sites), sites)
	}
	for _, row := range s.Sites {
		if row.ReadsFresh != 2*rounds || row.ReadsStale != rounds {
			t.Errorf("site %d fresh/stale = %d/%d, want %d/%d", row.Site, row.ReadsFresh, row.ReadsStale, 2*rounds, rounds)
		}
		if row.ReadVersionLag.Count != 3*rounds || row.ReadTimeLagUS.Count != 3*rounds {
			t.Errorf("site %d read lag counts %d versions, %d times; want %d each",
				row.Site, row.ReadVersionLag.Count, row.ReadTimeLagUS.Count, 3*rounds)
		}
	}
	if s.ReadsFresh != sites*2*rounds || s.ReadsStale != sites*rounds {
		t.Errorf("totals fresh/stale = %d/%d, want %d/%d", s.ReadsFresh, s.ReadsStale, sites*2*rounds, sites*rounds)
	}
	if s.ReadVersionLag.Count != s.ReadTimeLagUS.Count || s.ReadVersionLag.Count != s.Reads() {
		t.Errorf("totals: read lag counts %d versions, %d times, %d reads",
			s.ReadVersionLag.Count, s.ReadTimeLagUS.Count, s.Reads())
	}
	if s.Applies != items*commits {
		t.Errorf("Applies=%d, want %d", s.Applies, items*commits)
	}
}

// TestFreshSummaryGolden: a fixed sequence of calls summarizes to the
// values a tracker that sampled every certificate into the read
// histograms produces.
// Time lags depend on the clock, so only their sample counts, and the
// read time-lag medians (zero whenever half the reads are fresh), are
// compared.
func TestFreshSummaryGolden(t *testing.T) {
	tr := New(3)
	for i := 0; i < 3; i++ {
		tr.NoteCommit(1)
	}
	tr.NoteCommit(2)
	tr.NoteCommit(2)
	tr.NoteApply(1, 1)
	tr.NoteApply(1, 1)
	tr.NoteApply(2, 2)
	tr.NoteApply(2, 1)
	tr.CertifyRead(0, 1, 3)
	tr.CertifyRead(0, 1, 3)
	tr.CertifyRead(0, 2, 2)
	tr.CertifyFresh(0)
	tr.CertifyRead(1, 1, 2)
	tr.CertifyRead(1, 1, 0)
	tr.CertifyRead(1, 9, 0) // never committed: fresh
	tr.CertifyFresh(1)
	tr.CertifyRead(2, 2, 1)
	tr.CertifyFresh(2)
	tr.CertifyFresh(2)
	tr.CertifyFresh(4) // beyond New's size; site 3 stays silent

	got := tr.Summarize()
	clockless := func(d *Dist) { *d = Dist{Count: d.Count, P50: d.P50} }
	for i := range got.Sites {
		got.Sites[i].TimeLagUS = Dist{Count: got.Sites[i].TimeLagUS.Count}
		clockless(&got.Sites[i].ReadTimeLagUS)
	}
	got.TimeLagUS = Dist{Count: got.TimeLagUS.Count}
	clockless(&got.ReadTimeLagUS)

	zeros := func(n uint64) Dist { return Dist{Count: n} }
	lag := Dist{Count: 2, Mean: 1.5, P50: 1, P95: 2, P99: 2, Max: 2}
	want := &Summary{
		Sites: []SiteFreshness{
			{Site: 0, ReadsFresh: 4, ReadVersionLag: zeros(4), ReadTimeLagUS: zeros(4)},
			{Site: 1, Applies: 2, VersionLag: lag, TimeLagUS: zeros(2), ReadsFresh: 2, ReadsStale: 2,
				ReadVersionLag: Dist{Count: 4, Mean: 1, P95: 3, P99: 3, Max: 3}, ReadTimeLagUS: zeros(4)},
			{Site: 2, Applies: 2, VersionLag: lag, TimeLagUS: zeros(2), ReadsFresh: 2, ReadsStale: 1,
				ReadVersionLag: Dist{Count: 3, Mean: 1.0 / 3, P95: 1, P99: 1, Max: 1}, ReadTimeLagUS: zeros(3)},
			{Site: 4, ReadsFresh: 1, ReadVersionLag: zeros(1), ReadTimeLagUS: zeros(1)},
		},
		Applies:        4,
		VersionLag:     Dist{Count: 4, Mean: 1.5, P50: 1, P95: 2, P99: 2, Max: 2},
		TimeLagUS:      zeros(4),
		ReadsFresh:     9,
		ReadsStale:     3,
		ReadVersionLag: Dist{Count: 12, Mean: 5.0 / 12, P95: 3, P99: 3, Max: 3},
		ReadTimeLagUS:  zeros(12),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("summary\n got %+v\nwant %+v", got, want)
	}
}
