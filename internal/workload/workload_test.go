package workload

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/graph"
	"repro/internal/model"
)

func TestDefaultMatchesTable1(t *testing.T) {
	c := Default()
	if c.Sites != 9 || c.Items != 200 || c.ReplicationProb != 0.2 ||
		c.SiteProb != 0.5 || c.BackedgeProb != 0.2 || c.OpsPerTxn != 10 ||
		c.ThreadsPerSite != 3 || c.TxnsPerThread != 1000 ||
		c.ReadOpProb != 0.7 || c.ReadTxnProb != 0.5 {
		t.Errorf("defaults diverge from Table 1: %+v", c)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Sites = 0 },
		func(c *Config) { c.Items = c.Sites - 1 },
		func(c *Config) { c.OpsPerTxn = 0 },
		func(c *Config) { c.ThreadsPerSite = 0 },
		func(c *Config) { c.ReplicationProb = 1.5 },
		func(c *Config) { c.BackedgeProb = -0.1 },
		func(c *Config) { c.ReadOpProb = 2 },
	}
	for i, mut := range cases {
		c := Default()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
}

func TestPlacementDeterministicPerSeed(t *testing.T) {
	c := Default()
	p1, err := c.GeneratePlacement()
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := c.GeneratePlacement()
	for i := 0; i < c.Items; i++ {
		if p1.Primary[i] != p2.Primary[i] || len(p1.Replicas[i]) != len(p2.Replicas[i]) {
			t.Fatalf("placement not deterministic at item %d", i)
		}
	}
	c.Seed = 2
	p3, _ := c.GeneratePlacement()
	same := true
	for i := 0; i < c.Items; i++ {
		if p1.Primary[i] != p3.Primary[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical primaries")
	}
}

func TestPrimariesUniform(t *testing.T) {
	c := Default()
	p, err := c.GeneratePlacement()
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < c.Sites; s++ {
		n := len(p.PrimariesAt(model.SiteID(s)))
		// 200 items over 9 sites: every site gets 22 or 23 primaries.
		if n < c.Items/c.Sites || n > c.Items/c.Sites+1 {
			t.Errorf("site %d has %d primaries, want ~%d", s, n, c.Items/c.Sites)
		}
	}
}

func TestReplicationFractionTracksR(t *testing.T) {
	c := Default()
	c.Items = 4000
	c.ReplicationProb = 0.3
	c.BackedgeProb = 1 // every replicated item draws from all sites
	p, err := c.GeneratePlacement()
	if err != nil {
		t.Fatal(err)
	}
	replicated := 0
	for i := 0; i < c.Items; i++ {
		if p.IsReplicated(model.ItemID(i)) {
			replicated++
		}
	}
	frac := float64(replicated) / float64(c.Items)
	// With s=0.5 over 8 candidates, nearly every selected item gets >= 1
	// replica, so frac ~ r. Allow generous sampling slack.
	if frac < 0.25 || frac > 0.35 {
		t.Errorf("replicated fraction = %.3f, want ~0.30", frac)
	}
}

func TestBackedgeProbZeroYieldsDAG(t *testing.T) {
	c := Default()
	c.BackedgeProb = 0
	c.ReplicationProb = 1
	p, err := c.GeneratePlacement()
	if err != nil {
		t.Fatal(err)
	}
	g := graph.FromPlacement(p)
	order := make([]model.SiteID, c.Sites)
	for i := range order {
		order[i] = model.SiteID(i)
	}
	if backs := graph.OrderBackedges(g, order); len(backs) != 0 {
		t.Errorf("b=0 produced backedges %v", backs)
	}
	if !g.IsDAG() {
		t.Error("b=0 copy graph not a DAG")
	}
}

func TestBackedgeProbOneProducesBackedges(t *testing.T) {
	c := Default()
	c.BackedgeProb = 1
	c.ReplicationProb = 1
	p, err := c.GeneratePlacement()
	if err != nil {
		t.Fatal(err)
	}
	g := graph.FromPlacement(p)
	order := make([]model.SiteID, c.Sites)
	for i := range order {
		order[i] = model.SiteID(i)
	}
	if backs := graph.OrderBackedges(g, order); len(backs) == 0 {
		t.Error("b=1, r=1 produced no backedges")
	}
}

func TestBackedgeCountGrowsWithB(t *testing.T) {
	count := func(b float64) int {
		c := Default()
		c.Items = 2000
		c.ReplicationProb = 0.5
		c.BackedgeProb = b
		p, err := c.GeneratePlacement()
		if err != nil {
			t.Fatal(err)
		}
		g := graph.FromPlacement(p)
		order := make([]model.SiteID, c.Sites)
		for i := range order {
			order[i] = model.SiteID(i)
		}
		total := 0
		for _, e := range graph.OrderBackedges(g, order) {
			total += g.Weight(e)
		}
		return total
	}
	if !(count(0) < count(0.5) && count(0.5) < count(1)) {
		t.Errorf("backedge weight not increasing in b: %d %d %d", count(0), count(0.5), count(1))
	}
}

func TestTxnGenShapes(t *testing.T) {
	c := Default()
	p, err := c.GeneratePlacement()
	if err != nil {
		t.Fatal(err)
	}
	g := NewTxnGen(c, p, 0, 99)
	reads, writes, txns, readOnly := 0, 0, 2000, 0
	for i := 0; i < txns; i++ {
		ops := g.Next()
		if len(ops) != c.OpsPerTxn {
			t.Fatalf("txn has %d ops", len(ops))
		}
		ro := true
		for _, op := range ops {
			switch op.Kind {
			case model.OpRead:
				reads++
				if !p.HasCopy(0, op.Item) {
					t.Fatalf("read of item %d with no copy at s0", op.Item)
				}
			case model.OpWrite:
				writes++
				ro = false
				if !p.IsPrimary(0, op.Item) {
					t.Fatalf("write of item %d not primary at s0", op.Item)
				}
			}
		}
		if ro {
			readOnly++
		}
	}
	// Expected read fraction: readTxn 0.5 contributes all-reads; update
	// txns contribute 0.7 reads. Overall ~0.85.
	frac := float64(reads) / float64(reads+writes)
	if frac < 0.82 || frac > 0.88 {
		t.Errorf("read fraction = %.3f, want ~0.85", frac)
	}
	roFrac := float64(readOnly) / float64(txns)
	// All-read update transactions (0.7^10 ~ 2.8%) inflate this above 0.5.
	if roFrac < 0.45 || roFrac > 0.60 {
		t.Errorf("read-only fraction = %.3f, want ~0.51", roFrac)
	}
}

func TestTxnGenDeterministic(t *testing.T) {
	c := Default()
	p, _ := c.GeneratePlacement()
	g1 := NewTxnGen(c, p, 3, 7)
	g2 := NewTxnGen(c, p, 3, 7)
	for i := 0; i < 50; i++ {
		a, b := g1.Next(), g2.Next()
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("txn %d differs at op %d", i, j)
			}
		}
	}
}

func TestSkewValidation(t *testing.T) {
	c := Default()
	c.Skew = 0.5 // must be 0 or > 1
	if err := c.Validate(); err == nil {
		t.Error("Skew in (0,1] accepted")
	}
	c.Skew = 1.5
	if err := c.Validate(); err != nil {
		t.Errorf("valid skew rejected: %v", err)
	}
}

func TestSkewConcentratesAccess(t *testing.T) {
	c := Default()
	p, err := c.GeneratePlacement()
	if err != nil {
		t.Fatal(err)
	}
	topShare := func(skew float64) float64 {
		cc := c
		cc.Skew = skew
		g := NewTxnGen(cc, p, 0, 5)
		counts := map[model.ItemID]int{}
		total := 0
		for i := 0; i < 500; i++ {
			for _, op := range g.Next() {
				counts[op.Item]++
				total++
			}
		}
		max := 0
		for _, n := range counts {
			if n > max {
				max = n
			}
		}
		return float64(max) / float64(total)
	}
	uniform, skewed := topShare(0), topShare(2.0)
	if skewed < 2*uniform {
		t.Errorf("Zipf skew did not concentrate access: top item share %v (uniform) vs %v (s=2)", uniform, skewed)
	}
}

func TestSkewDeterministic(t *testing.T) {
	c := Default()
	c.Skew = 1.5
	p, _ := c.GeneratePlacement()
	g1 := NewTxnGen(c, p, 2, 9)
	g2 := NewTxnGen(c, p, 2, 9)
	for i := 0; i < 20; i++ {
		a, b := g1.Next(), g2.Next()
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("skewed generator not deterministic at txn %d op %d", i, j)
			}
		}
	}
}

func TestTxnGenSiteWithoutPrimariesFallsBackToReads(t *testing.T) {
	// Hand-build a placement where site 1 has no primaries but holds a
	// replica.
	p := model.NewPlacement(2, 2)
	p.Primary = []model.SiteID{0, 0}
	p.Replicas = [][]model.SiteID{{1}, nil}
	if err := p.Finish(); err != nil {
		t.Fatal(err)
	}
	c := Default()
	c.Sites, c.Items = 2, 2
	c.ReadTxnProb, c.ReadOpProb = 0, 0 // would be all writes
	g := NewTxnGen(c, p, 1, 1)
	for i := 0; i < 20; i++ {
		for _, op := range g.Next() {
			if op.Kind != model.OpRead {
				t.Fatal("site without primaries generated a write")
			}
		}
	}
}

// TestProgramSequenceUnchanged: the generator draws every program exactly
// as it always has, so a seed names the same run before and after a change
// to how programs are built. The hashes cover the first 10 000 programs of
// three clients under the default, a read-only and a Zipf configuration,
// and were taken before Next reused its buffer.
func TestProgramSequenceUnchanged(t *testing.T) {
	readOnly := Default()
	readOnly.ReadTxnProb = 1
	zipf := Default()
	zipf.Skew = 1.5
	configs := map[string]Config{"default": Default(), "readonly": readOnly, "zipf": zipf}
	for _, want := range []struct {
		config string
		seed   int64
		site   model.SiteID
		thread int
		hash   uint64
	}{
		{"default", 1, 0, 0, 0x8b42e09877a0fdb1},
		{"default", 1, 4, 2, 0x65b368e8b5a3ddf6},
		{"default", 7741, 8, 1, 0xe2517451732ada63},
		{"readonly", 1, 0, 0, 0xf3d918fa10547f9c},
		{"readonly", 1, 4, 2, 0xa59356e97cf5af39},
		{"readonly", 7741, 8, 1, 0x9f08de8608efc6ce},
		{"zipf", 1, 0, 0, 0x6ec94e64ca10c5b4},
		{"zipf", 1, 4, 2, 0x55578442003cc625},
		{"zipf", 7741, 8, 1, 0x53bfeae9bb4f325a},
	} {
		cfg := configs[want.config]
		cfg.Seed = want.seed
		p, err := cfg.GeneratePlacement()
		if err != nil {
			t.Fatal(err)
		}
		g := NewTxnGen(cfg, p, want.site, cfg.ClientSeed(want.site, want.thread))
		h := fnv.New64a()
		var word [8]byte
		put := func(v uint64) {
			binary.LittleEndian.PutUint64(word[:], v)
			h.Write(word[:])
		}
		for i := 0; i < 10_000; i++ {
			ops := g.Next()
			put(uint64(len(ops)))
			for _, op := range ops {
				put(uint64(op.Kind))
				put(uint64(op.Item))
				put(uint64(op.Value))
			}
		}
		if got := h.Sum64(); got != want.hash {
			t.Errorf("%s seed %d s%d thread %d: programs hash to %#x, want %#x",
				want.config, want.seed, want.site, want.thread, got, want.hash)
		}
	}
}

// TestNextAllocatesNothing: Next refills the generator's own buffer, so a
// client allocates nothing per program, uniform or Zipf.
func TestNextAllocatesNothing(t *testing.T) {
	for _, skew := range []float64{0, 1.5} {
		c := Default()
		c.Skew = skew
		p, err := c.GeneratePlacement()
		if err != nil {
			t.Fatal(err)
		}
		g := NewTxnGen(c, p, 0, c.ClientSeed(0, 0))
		if n := testing.AllocsPerRun(1000, func() { g.Next() }); n != 0 {
			t.Errorf("skew %v: Next allocates %v times per program, want 0", skew, n)
		}
	}
}
