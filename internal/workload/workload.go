// Package workload implements the data-distribution and
// transaction-generation schemes of §5.2 and the parameter space of
// Table 1. Data placement assigns primary copies uniformly over the sites
// and replicates a fraction r of each site's primaries; replica sites are
// drawn with probability s from either all sites (with probability b,
// creating backedges with respect to the total site order) or only from
// the sites that follow the primary in the order. Transactions are
// fixed-length read/write programs parameterized by the read-transaction
// and read-operation probabilities.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/model"
)

// Config is the full experiment parameter set of Table 1.
type Config struct {
	Sites           int     // m: number of sites (default 9, range 3–15)
	Items           int     // n: number of distinct items (default 200)
	ReplicationProb float64 // r: fraction of primaries that are replicated (default 0.2)
	SiteProb        float64 // s: probability a candidate site receives a replica (default 0.5)
	BackedgeProb    float64 // b: probability an item's replicas may precede its primary (default 0.2)
	OpsPerTxn       int     // operations per transaction (default 10)
	ThreadsPerSite  int     // concurrent client threads per site (default 3, range 1–5)
	TxnsPerThread   int     // transactions issued per thread (default 1000)
	ReadOpProb      float64 // fraction of reads in an update transaction (default 0.7)
	ReadTxnProb     float64 // probability a transaction is read-only (default 0.5)
	Seed            int64   // RNG seed; same seed, same placement and programs

	// Skew selects the item-access distribution within a site. 0 (the
	// paper's setting) is uniform; a value > 1 draws items from a Zipf
	// distribution with parameter s=Skew, concentrating traffic on a hot
	// subset — an extension ablation beyond the paper's workload.
	Skew float64
}

// Default returns the default parameter settings of Table 1.
func Default() Config {
	return Config{
		Sites:           9,
		Items:           200,
		ReplicationProb: 0.2,
		SiteProb:        0.5,
		BackedgeProb:    0.2,
		OpsPerTxn:       10,
		ThreadsPerSite:  3,
		TxnsPerThread:   1000,
		ReadOpProb:      0.7,
		ReadTxnProb:     0.5,
		Seed:            1,
	}
}

// Validate checks the configuration for placement generation: in addition
// to ValidateRun it requires enough items for every site to hold some.
func (c Config) Validate() error {
	if c.Items < c.Sites {
		return fmt.Errorf("workload: need at least as many items (%d) as sites (%d)", c.Items, c.Sites)
	}
	return c.ValidateRun()
}

// ValidateRun checks the parameters needed to drive client threads; it is
// sufficient when the data placement is supplied externally.
func (c Config) ValidateRun() error {
	if c.Sites < 1 {
		return fmt.Errorf("workload: need at least 1 site, got %d", c.Sites)
	}
	if c.OpsPerTxn < 1 || c.ThreadsPerSite < 1 || c.TxnsPerThread < 0 {
		return fmt.Errorf("workload: OpsPerTxn/ThreadsPerSite/TxnsPerThread out of range")
	}
	if c.Skew != 0 && c.Skew <= 1 {
		return fmt.Errorf("workload: Skew must be 0 (uniform) or > 1 (Zipf s), got %v", c.Skew)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"ReplicationProb", c.ReplicationProb},
		{"SiteProb", c.SiteProb},
		{"BackedgeProb", c.BackedgeProb},
		{"ReadOpProb", c.ReadOpProb},
		{"ReadTxnProb", c.ReadTxnProb},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("workload: %s=%v outside [0,1]", p.name, p.v)
		}
	}
	return nil
}

// GeneratePlacement builds a data placement according to §5.2. The total
// site order used to distinguish DAG edges from backedges is the site ID
// order s0 < s1 < ... (the chain the BackEdge prototype propagates
// along); an edge si→sj with j < i is a backedge.
func (c Config) GeneratePlacement() (*model.Placement, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.Seed))
	p := model.NewPlacement(c.Sites, c.Items)

	// Uniform primaries: a shuffled round-robin gives every site
	// approximately n/m primaries without tying item IDs to sites.
	perm := rng.Perm(c.Items)
	for i, item := range perm {
		p.Primary[item] = model.SiteID(i % c.Sites)
	}

	for item := 0; item < c.Items; item++ {
		if rng.Float64() >= c.ReplicationProb {
			continue // local (unreplicated) item
		}
		primary := p.Primary[item]
		var candidates []model.SiteID
		if rng.Float64() < c.BackedgeProb {
			// All sites are candidates; replicas before the primary in the
			// order induce backedges.
			for s := 0; s < c.Sites; s++ {
				if model.SiteID(s) != primary {
					candidates = append(candidates, model.SiteID(s))
				}
			}
		} else {
			for s := int(primary) + 1; s < c.Sites; s++ {
				candidates = append(candidates, model.SiteID(s))
			}
		}
		for _, cand := range candidates {
			if rng.Float64() < c.SiteProb {
				p.Replicas[item] = append(p.Replicas[item], cand)
			}
		}
	}
	if err := p.Finish(); err != nil {
		return nil, err
	}
	return p, nil
}

// TxnGen deterministically generates the transaction programs of one
// client thread (§5.2: a sequence of OpsPerTxn read/write operations;
// reads draw uniformly from the copies stored at the thread's site,
// writes from the primaries there).
type TxnGen struct {
	cfg   Config
	rng   *rand.Rand
	reads []model.ItemID // items readable at the site
	prims []model.ItemID // items writable at the site
	ops   []model.Op     // the program Next returns, refilled by every call

	readZipf, primZipf *rand.Zipf // nil when Skew == 0
}

// ClientSeed is the seed of the generator of client thread thread at
// site: distinct for every (site, thread) pair of a run, and the same in
// every deployment of the run, in-process or one process per site.
func (c Config) ClientSeed(site model.SiteID, thread int) int64 {
	return c.Seed + int64(site)*1000 + int64(thread) + 7
}

// NewTxnGen returns a generator for a thread at the given site. Distinct
// (site, thread) pairs should use distinct seeds (ClientSeed).
func NewTxnGen(cfg Config, p *model.Placement, site model.SiteID, seed int64) *TxnGen {
	g := &TxnGen{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(seed)),
		reads: p.CopiesAt(site),
		prims: p.PrimariesAt(site),
		ops:   make([]model.Op, 0, cfg.OpsPerTxn),
	}
	if cfg.Skew > 1 {
		if len(g.reads) > 0 {
			g.readZipf = rand.NewZipf(g.rng, cfg.Skew, 1, uint64(len(g.reads)-1))
		}
		if len(g.prims) > 0 {
			g.primZipf = rand.NewZipf(g.rng, cfg.Skew, 1, uint64(len(g.prims)-1))
		}
	}
	return g
}

func (g *TxnGen) pickRead() model.ItemID {
	if g.readZipf != nil {
		return g.reads[g.readZipf.Uint64()]
	}
	return g.reads[g.rng.Intn(len(g.reads))]
}

func (g *TxnGen) pickWrite() model.ItemID {
	if g.primZipf != nil {
		return g.prims[g.primZipf.Uint64()]
	}
	return g.prims[g.rng.Intn(len(g.prims))]
}

// Next generates one transaction program into a buffer the generator
// owns, so it allocates nothing. The returned slice is valid until the
// next call: a caller executes (or resubmits) the program before asking
// for the next one, and nothing may keep it past that.
func (g *TxnGen) Next() []model.Op {
	readOnly := g.rng.Float64() < g.cfg.ReadTxnProb
	ops := g.ops[:0]
	for i := 0; i < g.cfg.OpsPerTxn; i++ {
		isRead := readOnly || g.rng.Float64() < g.cfg.ReadOpProb
		if !isRead && len(g.prims) == 0 {
			isRead = true // a site with no primaries can only read
		}
		if isRead {
			ops = append(ops, model.Op{Kind: model.OpRead, Item: g.pickRead()})
		} else {
			ops = append(ops, model.Op{Kind: model.OpWrite, Item: g.pickWrite(), Value: g.rng.Int63()})
		}
	}
	g.ops = ops
	return ops
}
