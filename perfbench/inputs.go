package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/geom"
	"repro/internal/pipeline"
	"repro/internal/serve"
)

// Everything the program under test receives is generated here from the
// benchmark seed. Each input family draws from its own sub-seed, so changing
// how many draws one family makes never shifts another.
const (
	seedPool     = 1 // frame pool clouds
	seedOrder    = 2 // closed-loop frame order
	seedArrivals = 3 // open-loop arrival times, tenant order, frames
	seedTrainSet = 4 // training set
)

// poolSize is the number of distinct frames a serving workload cycles
// through. Reference logits are computed once per pooled frame.
const poolSize = 8

// modelSeed fixes the network weights. The weights are part of the program
// under test, not of its input, so every benchmark seed serves the same
// model.
const modelSeed = 1

// mix64 is the SplitMix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// subSeed derives an independent seed for one input family.
func subSeed(seed int64, family uint64) int64 {
	return int64(mix64(uint64(seed)+family*0x9E3779B97F4A7C15) >> 1)
}

// framePool generates the serving workloads' frame pool.
func framePool(w pipeline.Workload, seed int64) ([]*geom.Cloud, error) {
	rng := rand.New(rand.NewSource(subSeed(seed, seedPool)))
	pool := make([]*geom.Cloud, poolSize)
	for i := range pool {
		c, err := pipeline.Frame(w, rng.Int63())
		if err != nil {
			return nil, fmt.Errorf("frame pool %d: %w", i, err)
		}
		pool[i] = c
	}
	return pool, nil
}

// frameOrder returns a closed-loop client's next-frame picker.
func frameOrder(seed int64) func() int {
	rng := rand.New(rand.NewSource(subSeed(seed, seedOrder)))
	return func() int { return rng.Intn(poolSize) }
}

// arrival is one open-loop request: when it is due (from the start of the
// window), who sends it, and which pooled frame it carries.
type arrival struct {
	At     time.Duration
	Tenant int
	Stream int
	Frame  int
}

// trafficSpec fixes the open-loop traffic mix.
type trafficSpec struct {
	Rate    float64 // mean arrivals per second (exponential inter-arrivals)
	Tenants int
	ZipfS   float64 // tenant popularity skew
	Streams int     // routing streams per tenant
}

// schedule draws the open-loop arrivals of one window. Every seed offers
// the same load: exactly Rate × window requests, each tenant's count fixed
// by its Zipf share, each tenant alternating over its streams. Seeds differ
// in when requests arrive (a Poisson process conditioned on the count:
// exponential gaps rescaled to span the window), in the order tenants take
// their turns, and in which pooled frame each request carries.
func schedule(seed int64, t trafficSpec, window time.Duration) []arrival {
	rng := rand.New(rand.NewSource(subSeed(seed, seedArrivals)))
	n := int(math.Round(t.Rate * window.Seconds()))
	gaps := make([]float64, n+1)
	var total float64
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		total += gaps[i]
	}
	tenants := tenantDraws(n, t.Tenants, t.ZipfS)
	rng.Shuffle(len(tenants), func(i, j int) { tenants[i], tenants[j] = tenants[j], tenants[i] })
	turns := make([]int, t.Tenants)
	out := make([]arrival, n)
	at := 0.0
	for i := range out {
		at += gaps[i]
		tn := tenants[i]
		out[i] = arrival{
			At:     time.Duration(at / total * float64(window)),
			Tenant: tn,
			Stream: turns[tn] % t.Streams,
			Frame:  rng.Intn(poolSize),
		}
		turns[tn]++
	}
	return out
}

// tenantDraws lists n tenant ranks, each rank r appearing in proportion to
// 1/(r+1)^s (largest-remainder rounding, so the counts sum to n).
func tenantDraws(n, tenants int, s float64) []int {
	w := make([]float64, tenants)
	var total float64
	for r := range w {
		w[r] = 1 / math.Pow(float64(r+1), s)
		total += w[r]
	}
	counts := make([]int, tenants)
	rem := make([]int, tenants)
	left := n
	for r := range w {
		exact := float64(n) * w[r] / total
		counts[r] = int(exact)
		left -= counts[r]
		rem[r] = r
		w[r] = exact - float64(counts[r])
	}
	sort.SliceStable(rem, func(i, j int) bool { return w[rem[i]] > w[rem[j]] })
	for i := 0; i < left; i++ {
		counts[rem[i]]++
	}
	out := make([]int, 0, n)
	for r, c := range counts {
		for ; c > 0; c-- {
			out = append(out, r)
		}
	}
	return out
}

func tenantName(i int) string { return fmt.Sprintf("tenant-%02d", i) }

func streamName(tenant, stream int) string {
	return fmt.Sprintf("%s-cam%d", tenantName(tenant), stream)
}

// classMix is the share of tenants in each priority class (high, normal,
// low), the same mix the loadgen defaults use.
var classMix = [serve.NumPriorities]float64{0.2, 0.5, 0.3}

// priorityOf assigns a tenant its class by a hash of its name alone, so the
// class of each tenant is the same under every seed.
func priorityOf(tenant string) serve.Priority {
	h := fnv.New64a()
	h.Write([]byte(tenant))
	u := float64(mix64(h.Sum64())>>11) / (1 << 53)
	acc := 0.0
	for c, m := range classMix {
		acc += m
		if u < acc {
			return serve.Priority(c)
		}
	}
	return serve.PriorityLow
}
