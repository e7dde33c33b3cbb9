package fresh

import (
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
