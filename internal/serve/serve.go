// Package serve is the concurrent batched inference engine: the layer that
// turns the one-frame-at-a-time pipeline of internal/pipeline into a
// sustained-traffic server, the deployment shape EdgePC targets (streaming
// frames on a constrained device, where queueing, deadlines and graceful
// overload behavior matter as much as per-frame latency).
//
// Architecture (DESIGN.md §9, fault model §11):
//
//   - A sharded worker pool: each worker goroutine owns one model replica
//     (weights shared read-only across replicas via nn.ShareParams — see
//     pipeline.Replicas) and, inside it, one long-lived tensor.Workspace, so
//     the zero-allocation steady state of the single-frame hot path holds
//     per goroutine with no cross-worker synchronization.
//   - A bounded submission queue with reject-on-full backpressure: Submit
//     never blocks the caller on admission — a full queue returns
//     ErrQueueFull immediately and the caller sheds or retries.
//   - Input admission: frames are validated at Submit (non-finite
//     coordinates, empty/oversized clouds, degenerate bounding boxes, shape
//     mismatches) and rejected with ErrInvalidInput before a worker is
//     burned — see admission.go.
//   - Per-request deadlines: a frame whose deadline passed while queued is
//     dropped with ErrDeadline instead of wasting a worker on a stale result.
//   - An adaptive micro-batcher: a worker that dequeues a frame coalesces
//     whatever compatible frames (same Key) are already pending, up to
//     MaxBatch; if batch-mates were found — evidence of queued load — it
//     waits up to BatchWindow for stragglers. At low load frames run
//     immediately with zero added latency; under load batches grow and
//     amortize per-dispatch overhead.
//   - Panic isolation: every frame runs under a recover wrapper; a panic
//     fails that one request with ErrPanic (stack captured in Stats), the
//     worker's replica is quarantined and rebuilt via Config.Rebuild, and
//     repeated panics trip a per-worker circuit breaker with exponential
//     backoff — see resilience.go.
//   - A stall watchdog: every worker stamps an atomic frame-start heartbeat;
//     a watchdog goroutine detects a worker wedged past Config.StallTimeout,
//     fails its in-flight batch with ErrStalled (exactly-once delivery via a
//     per-request CAS), counts the stall toward the circuit breaker, and
//     respawns the pool slot with rebuilt replicas — see watchdog.go.
//   - A degradation ladder: when queue depth crosses the high watermark the
//     engine steps down to cheaper approximation tiers (Config.Degrade,
//     built from pipeline.DegradeTiers) instead of rejecting, and steps back
//     up with hysteresis as load drains. Results carry the tier they were
//     served at.
//   - Graceful shutdown: Close stops admission, drains every queued frame
//     through the workers, and returns when all in-flight work is done — a
//     breaker-parked worker is woken immediately so Close never waits out a
//     backoff.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/edgesim"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/pipeline"
)

// Engine errors returned by Submit. ErrInvalidInput is declared in
// admission.go and ErrPanic in resilience.go.
var (
	// ErrClosed reports a Submit after Close started.
	ErrClosed = errors.New("serve: engine closed")
	// ErrQueueFull is the backpressure signal: the bounded submission queue
	// is at capacity and the frame was rejected without blocking.
	ErrQueueFull = errors.New("serve: submission queue full")
	// ErrDeadline reports a frame whose deadline expired before a worker
	// could run it.
	ErrDeadline = errors.New("serve: request deadline exceeded")
)

// Tier is one degraded rung of the serving ladder: a named set of cheaper
// replica nets, one per worker. pipeline.TieredReplicas builds weight-sharing
// rows ready to be wired here.
type Tier struct {
	// Name labels the tier in stats output (e.g. "W/2+bucketfps@0.5", from
	// pipeline.DegradeLabels).
	Name string
	// Nets holds one replica per worker, sharing weights with the primary
	// replicas but built with a cheaper approximation preset.
	Nets []pipeline.Net
}

// Config tunes the engine. The zero value selects sane defaults for every
// field.
type Config struct {
	// QueueDepth bounds the submission queue; a full queue rejects with
	// ErrQueueFull. Default: 4× the worker count.
	QueueDepth int
	// MaxBatch caps how many frames one worker coalesces into a micro-batch.
	// Default 8; 1 disables batching.
	MaxBatch int
	// BatchWindow is the longest a worker waits for batch stragglers once at
	// least two frames are in hand. Default 500µs; negative disables the
	// wait (batches still form from already-pending frames).
	BatchWindow time.Duration
	// DefaultTimeout is applied to requests that carry no timeout of their
	// own. Zero means no deadline.
	DefaultTimeout time.Duration
	// LatencyWindow is the sample capacity of the latency quantile window
	// (metrics.DefaultLatencyWindow when zero).
	LatencyWindow int

	// MaxPoints is the admission cap on cloud size; larger frames are
	// rejected with ErrInvalidInput. Default DefaultMaxPoints.
	MaxPoints int

	// Degrade is the degradation ladder: Degrade[i] serves tier i+1 (tier 0
	// is the full-fidelity replica set given to New). Empty disables
	// degradation — overload then rejects with ErrQueueFull as before. The
	// step-down and step-up thresholds are the Ladder's constants.
	Degrade []Tier

	// PanicTrip is the number of consecutive panics on one worker that trip
	// its circuit breaker. Default 3.
	PanicTrip int
	// BackoffBase is the first breaker park duration; it doubles on every
	// consecutive trip up to BackoffMax, with seeded jitter spreading each
	// park across the upper half of its doubled value so workers tripped by
	// the same fault storm do not re-probe in lockstep. Defaults 100ms / 5s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BackoffJitterSeed seeds the deterministic breaker-backoff jitter;
	// fixed seeds reproduce exact park schedules. Default 1.
	BackoffJitterSeed uint64
	// StallTimeout arms the stall watchdog: a worker whose frame-start
	// heartbeat is older than this is declared wedged — its in-flight batch
	// fails with ErrStalled, the stall counts toward the worker's circuit
	// breaker, and the pool slot is respawned with replicas rebuilt through
	// Rebuild (without a Rebuild hook the batch still fails but the wedged
	// worker keeps its slot, since its replica cannot be replaced). Zero —
	// the default — disables the watchdog. See watchdog.go.
	StallTimeout time.Duration
	// Rebuild, when set, is called after a replica panics to build its
	// replacement (pipeline.RebuildReplica shares weights with the old set).
	// worker is the pool slot, tier the ladder rung that panicked. A nil
	// hook (or a failing rebuild) keeps the old replica: panics are still
	// isolated, but a corrupted workspace would persist.
	Rebuild func(worker, tier int) (pipeline.Net, error)

	// Faults, when non-nil, threads a deterministic fault-injection plan
	// through the engine's internals (chaos testing). Nil — the default —
	// costs one pointer check per frame.
	Faults *faultinject.Plan
}

func (c *Config) defaults(workers int) {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * workers
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.BatchWindow == 0 {
		c.BatchWindow = 500 * time.Microsecond
	}
	if c.BatchWindow < 0 {
		c.BatchWindow = 0
	}
	if c.MaxPoints <= 0 {
		c.MaxPoints = DefaultMaxPoints
	}
	if c.PanicTrip <= 0 {
		c.PanicTrip = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 100 * time.Millisecond
	}
	if c.BackoffMax < c.BackoffBase {
		c.BackoffMax = 5 * time.Second
		if c.BackoffMax < c.BackoffBase {
			c.BackoffMax = c.BackoffBase
		}
	}
	if c.BackoffJitterSeed == 0 {
		c.BackoffJitterSeed = 1
	}
	if c.StallTimeout < 0 {
		c.StallTimeout = 0
	}
}

// Request is one frame submitted for inference.
type Request struct {
	// Cloud is the input frame. It must not be mutated until Submit returns:
	// the forward pass reads it concurrently with the caller.
	Cloud *geom.Cloud
	// Key is the batch-compatibility tag: only frames with equal keys share
	// a micro-batch (frames of the same model/config stream). Callers with a
	// single stream leave it empty.
	Key string
	// Timeout, when positive, bounds this request's total time in the
	// engine; zero inherits Config.DefaultTimeout.
	Timeout time.Duration
}

// Result is the outcome of one served frame.
type Result struct {
	// Output holds the logits, detached from the worker's workspace (valid
	// indefinitely). Nil when Err is set.
	Output *model.Output
	// Report is the modelled edge-device cost of the frame (zero when the
	// engine was built with a nil device).
	Report edgesim.Report
	// Err is the per-frame failure, also returned by Submit.
	Err error
	// Worker is the pool slot that ran the frame.
	Worker int
	// BatchSize is the number of frames in the micro-batch this frame rode
	// in.
	BatchSize int
	// Tier is the degradation rung the frame was served at: 0 is full
	// fidelity, i ≥ 1 indexes Config.Degrade[i-1].
	Tier int
	// Wait is the time from submission to the worker picking the frame up;
	// Total is submission to completion.
	Wait  time.Duration
	Total time.Duration
}

// request is the queued form of a Request.
type request struct {
	cloud    *geom.Cloud
	key      string
	seq      uint64 // admission sequence number (fault-plan domain)
	ctx      context.Context
	deadline time.Time // zero: no deadline
	enq      time.Time
	reply    chan Result // buffered (cap 1): workers never block on delivery
	done     atomic.Bool // outcome claimed; see claim
}

// claim takes ownership of the request's outcome, reporting whether this
// caller won. Exactly one claimant ever wins — the serving worker, the
// stall watchdog, a recover path, or the submitter whose context lapsed —
// and only the winner counts the frame and, unless it is the submitter,
// sends the result. That keeps the cap-1 reply channel from wedging and
// guarantees no frame is counted twice when a watchdog fails a batch a
// zombie worker later finishes, or a worker finishes a frame its submitter
// already abandoned. Winners update counters before they send, so a caller
// that has its result never reads Stats lagging behind it.
//
//edgepc:hotpath
func (r *request) claim() bool {
	return r.done.CompareAndSwap(false, true)
}

// worker is one goroutine incarnation of a pool slot: a private net replica
// per ladder tier (shared weights, private workspace and caches), a
// reusable trace, and a reusable batch slice. A respawn — lastResort after
// an escaped panic, or the stall watchdog deposing a wedged incarnation —
// builds a fresh worker for the slot, so deposed/beat/live state is never
// shared between the dying goroutine and its replacement.
type worker struct {
	id    int
	nets  []pipeline.Net // nets[tier]; index 0 is the full-fidelity replica
	trace model.Trace
	batch []*request
	carry *request // dequeued frame with a mismatched key, runs next batch

	// Circuit-breaker state. Written only by the owning goroutine (and the
	// constructor of a replacement incarnation); atomic because the stall
	// watchdog reads them to carry the streak across a depose-respawn.
	consec   atomic.Int32 // consecutive failed (panicked or stalled) frames
	trips    atomic.Int32 // consecutive breaker trips (backoff exponent)
	respawns atomic.Int32 // consecutive respawns of this slot's lineage

	pendingTrip bool // replacement must serve a breaker park before batch 1

	beat    atomic.Int64 // frame-start heartbeat (unix ns); 0 while idle
	deposed atomic.Bool  // incarnation claimed (watchdog or own exit); claimant runs wg.Done
	stalled atomic.Bool  // watchdog already failed the current batch in place
	liveMu  sync.Mutex   // guards live
	live    []*request   // in-flight batch published for the watchdog
}

// Engine is the concurrent batched inference engine. Create with New; all
// methods are safe for concurrent use.
type Engine struct {
	cfg     Config
	dev     *edgesim.Device
	sim     edgesim.Config
	workers int
	queue   chan *request
	closing chan struct{} // closed when Close starts; wakes parked workers
	faults  *faultinject.Plan

	numTiers int // 1 + len(cfg.Degrade)
	ladder   *Ladder

	mu     sync.RWMutex // guards closed against concurrent queue sends
	closed bool
	wg     sync.WaitGroup

	seq       atomic.Uint64 // admission sequence numbers
	submitted atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64
	rejected  atomic.Uint64
	timedOut  atomic.Uint64
	canceled  atomic.Uint64
	invalid   atomic.Uint64
	batches   atomic.Uint64
	frames    atomic.Uint64

	degraded    []atomic.Uint64 // completed frames per tier
	panics      atomic.Uint64
	quarantines atomic.Uint64
	trips       atomic.Uint64
	stalls      atomic.Uint64 // frames failed with ErrStalled by the watchdog
	respawns    atomic.Uint64 // worker respawns (lastResort + watchdog deposals)

	slots []atomic.Pointer[worker] // current incarnation per pool slot

	panicMu   sync.Mutex
	lastPanic string

	latency *metrics.LatencyWindow
}

// New starts an engine with one worker per net. The nets must be independent
// replicas (pipeline.Replicas builds weight-sharing ones); a single net must
// never be given twice — each worker assumes exclusive ownership of its
// replica's workspace and caches. The same holds across cfg.Degrade tiers:
// every tier needs one exclusive replica per worker
// (pipeline.TieredReplicas builds the whole matrix). dev may be nil to skip
// per-frame cost modelling.
func New(nets []pipeline.Net, dev *edgesim.Device, sim edgesim.Config, cfg Config) (*Engine, error) {
	if len(nets) == 0 {
		return nil, fmt.Errorf("serve: need at least one net replica")
	}
	all := make([]pipeline.Net, 0, len(nets)*(1+len(cfg.Degrade)))
	all = append(all, nets...)
	for t, tier := range cfg.Degrade {
		if len(tier.Nets) != len(nets) {
			return nil, fmt.Errorf("serve: degrade tier %d has %d nets for %d workers", t+1, len(tier.Nets), len(nets))
		}
		all = append(all, tier.Nets...)
	}
	for i, n := range all {
		if n == nil {
			return nil, fmt.Errorf("serve: nil net replica %d", i)
		}
		for j := 0; j < i; j++ {
			if all[j] == n {
				return nil, fmt.Errorf("serve: net replica %d duplicates replica %d (workers need exclusive replicas)", i, j)
			}
		}
	}
	cfg.defaults(len(nets))
	e := &Engine{
		cfg:      cfg,
		dev:      dev,
		sim:      sim,
		workers:  len(nets),
		queue:    make(chan *request, cfg.QueueDepth),
		closing:  make(chan struct{}),
		faults:   cfg.Faults,
		numTiers: 1 + len(cfg.Degrade),
		ladder:   NewLadder(1+len(cfg.Degrade), cfg.QueueDepth),
		latency:  metrics.NewLatencyWindow(cfg.LatencyWindow),
	}
	e.degraded = make([]atomic.Uint64, e.numTiers)
	e.slots = make([]atomic.Pointer[worker], len(nets))
	for i, n := range nets {
		tiers := make([]pipeline.Net, 1, e.numTiers)
		tiers[0] = n
		for _, t := range cfg.Degrade {
			tiers = append(tiers, t.Nets[i])
		}
		w := &worker{id: i, nets: tiers, batch: make([]*request, 0, cfg.MaxBatch)}
		e.slots[i].Store(w)
		e.wg.Add(1)
		go e.workerLoop(w)
	}
	if cfg.StallTimeout > 0 {
		e.wg.Add(1)
		go e.watchdog()
	}
	return e, nil
}

// TierName names a ladder rung for display: "full" for tier 0, the
// configured tier name (or "tier<N>") above.
func (e *Engine) TierName(t int) string {
	if t <= 0 {
		return "full"
	}
	if t <= len(e.cfg.Degrade) && e.cfg.Degrade[t-1].Name != "" {
		return e.cfg.Degrade[t-1].Name
	}
	return fmt.Sprintf("tier%d", t)
}

// QueueFill reports the submission queue's fill fraction in [0,1] — the
// pressure signal the fleet router's shed controller averages across
// engines. Safe for concurrent use; one channel read, no locks.
func (e *Engine) QueueFill() float64 {
	if cap(e.queue) == 0 {
		return 0
	}
	return float64(len(e.queue)) / float64(cap(e.queue))
}

// Submit enqueues one frame and waits for its result. Admission never
// blocks: an invalid frame returns ErrInvalidInput, a full queue
// ErrQueueFull, and a closed engine ErrClosed, all immediately. The wait for
// the result is bounded by the request deadline (or ctx); cancelling ctx
// abandons the frame — unless a worker already claimed its outcome, in
// which case that outcome is returned, so a frame is never both served and
// reported cancelled.
func (e *Engine) Submit(ctx context.Context, req Request) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	seq := e.seq.Add(1) - 1
	cloud := req.Cloud
	if e.faults != nil && cloud != nil {
		// Corrupt-input injection happens before admission on purpose: the
		// chaos tests assert that a poisoned frame is rejected here, never
		// handed to a worker.
		if d := e.faults.Frame(seq); d.Op == faultinject.OpCorrupt {
			cloud = faultinject.Corrupt(cloud, e.faults.Seed, seq)
		}
	}
	if err := validateFrame(cloud, e.cfg.MaxPoints); err != nil {
		e.invalid.Add(1)
		return Result{}, err
	}
	r := &request{
		cloud: cloud,
		key:   req.Key,
		seq:   seq,
		ctx:   ctx,
		enq:   time.Now(),
		reply: make(chan Result, 1),
	}
	timeout := req.Timeout
	if timeout <= 0 {
		timeout = e.cfg.DefaultTimeout
	}
	if timeout > 0 {
		r.deadline = r.enq.Add(timeout)
	}
	if dl, ok := ctx.Deadline(); ok && (r.deadline.IsZero() || dl.Before(r.deadline)) {
		r.deadline = dl
	}

	// The RLock pairs with Close's exclusive section: a send can only race
	// with close(queue) if a Submit could still see closed == false after
	// Close set it, which the lock excludes.
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		return Result{}, ErrClosed
	}
	select {
	case e.queue <- r:
		e.mu.RUnlock()
	default:
		e.mu.RUnlock()
		e.rejected.Add(1)
		return Result{}, ErrQueueFull
	}
	e.submitted.Add(1)
	e.ladder.Enqueued(len(e.queue))

	select {
	case res := <-r.reply:
		return res, res.Err
	case <-ctx.Done():
		if r.claim() {
			e.canceled.Add(1)
			return Result{}, ctx.Err()
		}
		// A worker or the watchdog claimed the frame first; its send is
		// already on the way.
		res := <-r.reply
		return res, res.Err
	}
}

// workerLoop is one pool goroutine: dequeue, coalesce, run, repeat until the
// queue is closed and drained. The leading deferred guard is the package
// invariant — no panic may escape a serve goroutine and kill the process —
// enforced statically by the gorecover analyzer:
//
//edgepc:goroutines-must-recover
func (e *Engine) workerLoop(w *worker) {
	defer e.lastResort(w) // recovers; also balances the incarnation's wg slot
	if w.pendingTrip {
		// This incarnation replaced one whose failure streak crossed
		// PanicTrip (stall deposals count like panics): serve the breaker
		// park before touching the queue.
		w.pendingTrip = false
		e.trip(w)
	}
	for {
		if w.deposed.Load() {
			// The watchdog declared this incarnation wedged, failed its
			// batch and respawned the slot. If we got here the stall
			// resolved late — bow out without touching the queue.
			return
		}
		first := w.carry
		w.carry = nil
		if first == nil {
			var ok bool
			first, ok = <-e.queue
			if !ok {
				return
			}
		}
		w.batch = append(w.batch[:0], first)
		e.coalesce(w)
		e.runBatch(w)
	}
}

// coalesce grows w.batch with compatible pending frames. Phase 1 drains
// whatever is immediately queued (no waiting). Phase 2 — only entered when
// phase 1 found batch-mates, the adaptivity rule — waits up to BatchWindow
// for stragglers. A frame with a different key ends the batch and is carried
// into the next one.
func (e *Engine) coalesce(w *worker) {
	key := w.batch[0].key
	for len(w.batch) < e.cfg.MaxBatch {
		select {
		case r, ok := <-e.queue:
			if !ok {
				return
			}
			if r.key != key {
				w.carry = r
				return
			}
			w.batch = append(w.batch, r)
		default:
			if len(w.batch) < 2 || e.cfg.BatchWindow <= 0 {
				return
			}
			e.coalesceWindow(w, key)
			return
		}
	}
}

// coalesceWindow is coalesce's phase 2: blocking receives under a shared
// BatchWindow timer.
func (e *Engine) coalesceWindow(w *worker, key string) {
	timer := time.NewTimer(e.cfg.BatchWindow)
	defer timer.Stop()
	for len(w.batch) < e.cfg.MaxBatch {
		select {
		case r, ok := <-e.queue:
			if !ok {
				return
			}
			if r.key != key {
				w.carry = r
				return
			}
			w.batch = append(w.batch, r)
		case <-timer.C:
			return
		}
	}
}

// runBatch executes every frame of the worker's batch in submission order.
// Frames run individually through the replica (the batch amortizes dispatch,
// not compute — each forward already parallelizes internally), so one bad
// frame fails alone. The serving tier is sampled once per batch; a panicked
// frame quarantines the replica before the next frame runs (resilience.go).
//
//edgepc:hotpath
func (e *Engine) runBatch(w *worker) {
	n := len(w.batch)
	e.batches.Add(1)
	e.frames.Add(uint64(n))
	tier := e.ladder.Tier()
	// Publish the in-flight batch and start the heartbeat so the stall
	// watchdog can see (and fail) exactly these requests if we wedge. The
	// publish copies into a private slice under liveMu: the worker keeps
	// mutating w.batch lock-free on the hot path.
	w.stalled.Store(false)
	w.liveMu.Lock()
	w.live = append(w.live[:0], w.batch...)
	w.liveMu.Unlock()
	w.beat.Store(time.Now().UnixNano())
	if e.faults != nil {
		if d := e.faults.Frame(w.batch[0].seq); d.Op == faultinject.OpStall {
			time.Sleep(d.Sleep)
		}
	}
	for i, r := range w.batch {
		if w.deposed.Load() {
			// The watchdog already failed every published request and
			// respawned the slot; running the rest of the batch would be
			// wasted compute on a zombie.
			break
		}
		if e.runProtected(w, r, n, tier) {
			e.quarantine(w, tier)
			if w.consec.Add(1) >= int32(e.cfg.PanicTrip) {
				w.consec.Store(0)
				w.beat.Store(0) // a breaker park is not a stall
				e.trip(w)
				w.beat.Store(time.Now().UnixNano())
			}
		} else {
			w.consec.Store(0)
			w.trips.Store(0)
			w.respawns.Store(0)
		}
		w.batch[i] = nil // release the request for GC; the slice is reused
	}
	w.beat.Store(0)
	w.liveMu.Lock()
	w.live = w.live[:0]
	w.liveMu.Unlock()
	e.ladder.Observe(len(e.queue))
}

// runFrame is the per-frame worker hot loop: deadline/cancellation gate,
// then the reentrant pipeline entry point against the worker's private
// replica and trace. The steady-state allocation profile is the single-frame
// pipeline's (see BenchmarkServeSteadyState): the request, its reply channel
// and the detached Output header are the only serve-layer additions.
//
//edgepc:hotpath
func (e *Engine) runFrame(w *worker, r *request, batchSize, tier int) {
	now := time.Now()
	w.beat.Store(now.UnixNano()) // frame-start heartbeat for the watchdog
	if err := r.ctx.Err(); err != nil {
		// The submitter's context lapsed; unless the submitter already
		// claimed the frame, report the lapse on its behalf.
		e.finish(r, Result{Err: err, Worker: w.id, BatchSize: batchSize, Tier: tier, Wait: now.Sub(r.enq)}, &e.canceled)
		return
	}
	if !r.deadline.IsZero() && now.After(r.deadline) {
		e.finish(r, Result{Err: ErrDeadline, Worker: w.id, BatchSize: batchSize, Tier: tier, Wait: now.Sub(r.enq)}, &e.timedOut)
		return
	}
	if e.faults != nil {
		switch d := e.faults.Frame(r.seq); d.Op {
		case faultinject.OpPanic:
			panic(fmt.Sprintf("faultinject: frame %d", r.seq))
		case faultinject.OpDelay:
			time.Sleep(d.Sleep)
		}
	}
	rep, out, err := pipeline.RunInto(w.nets[tier], r.cloud, &w.trace, e.dev, e.sim)
	if err != nil {
		e.finish(r, Result{Err: fmt.Errorf("serve: worker %d: %w", w.id, err), Worker: w.id, BatchSize: batchSize, Tier: tier, Wait: now.Sub(r.enq)}, &e.failed)
		return
	}
	e.finish(r, Result{Output: out, Report: rep, Worker: w.id, BatchSize: batchSize, Tier: tier, Wait: now.Sub(r.enq)}, &e.completed)
}

// finish claims the request, stamps the end-to-end latency, moves the
// outcome's counter (and, for a served frame, its tier's), then sends the
// result — never blocking: the reply channel is buffered and sent to only
// by the claim's winner. A loser changes nothing, so a zombie worker
// finishing a batch the watchdog already failed cannot double-count frames.
//
//edgepc:hotpath
func (e *Engine) finish(r *request, res Result, count *atomic.Uint64) {
	if !r.claim() {
		return
	}
	res.Total = time.Since(r.enq)
	e.latency.Observe(res.Total)
	count.Add(1)
	if res.Err == nil {
		e.degraded[res.Tier].Add(1)
	}
	r.reply <- res
}

// Close stops admission, wakes any breaker-parked worker, drains every
// queued frame through the workers, and returns once all in-flight work has
// completed. Queued frames are still served (or dropped via their
// deadlines); new Submits fail with ErrClosed. A second Close returns
// ErrClosed.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	e.closed = true
	e.mu.Unlock()
	close(e.closing) // interrupt breaker backoffs: drain must never wait one out
	close(e.queue)
	e.wg.Wait()
	return nil
}

// Stats is a point-in-time snapshot of the engine's counters and latency
// distribution.
type Stats struct {
	Workers  int
	QueueLen int // frames currently queued
	QueueCap int

	Submitted uint64 // admitted frames
	Completed uint64 // frames served successfully
	Failed    uint64 // frames whose forward pass errored
	Rejected  uint64 // backpressure rejections (ErrQueueFull)
	TimedOut  uint64 // frames dropped at their deadline (ErrDeadline)
	Canceled  uint64 // submitters that abandoned via ctx
	Invalid   uint64 // frames rejected at admission (ErrInvalidInput)

	Panics       uint64 // frames failed by a worker panic (ErrPanic)
	Quarantines  uint64 // replica quarantine events after panics
	BreakerTrips uint64 // circuit-breaker parks across all workers
	Stalls       uint64 // frames failed by the stall watchdog (ErrStalled)
	Respawns     uint64 // worker respawns (escaped panics + stall deposals)
	LastPanic    string // worker, value and stack of the most recent panic

	Tier      int      // current degradation tier (0 = full fidelity)
	StepDowns uint64   // ladder step-down events
	StepUps   uint64   // ladder step-up (recovery) events
	Degraded  []uint64 // completed frames per tier; index 0 = full fidelity

	Batches   uint64  // micro-batches executed
	Frames    uint64  // frames across all batches
	MeanBatch float64 // Frames / Batches

	Latency metrics.LatencySnapshot // end-to-end submit→completion
}

// Stats returns a snapshot; safe to call concurrently with serving.
func (e *Engine) Stats() Stats {
	s := Stats{
		Workers:      e.workers,
		QueueLen:     len(e.queue),
		QueueCap:     cap(e.queue),
		Submitted:    e.submitted.Load(),
		Completed:    e.completed.Load(),
		Failed:       e.failed.Load(),
		Rejected:     e.rejected.Load(),
		TimedOut:     e.timedOut.Load(),
		Canceled:     e.canceled.Load(),
		Invalid:      e.invalid.Load(),
		Panics:       e.panics.Load(),
		Quarantines:  e.quarantines.Load(),
		BreakerTrips: e.trips.Load(),
		Stalls:       e.stalls.Load(),
		Respawns:     e.respawns.Load(),
		Tier:         e.ladder.Tier(),
		StepDowns:    e.ladder.StepDowns(),
		StepUps:      e.ladder.StepUps(),
		Batches:      e.batches.Load(),
		Frames:       e.frames.Load(),
		Latency:      e.latency.Snapshot(),
	}
	s.Degraded = make([]uint64, e.numTiers)
	for i := range e.degraded {
		s.Degraded[i] = e.degraded[i].Load()
	}
	e.panicMu.Lock()
	s.LastPanic = e.lastPanic
	e.panicMu.Unlock()
	if s.Batches > 0 {
		s.MeanBatch = float64(s.Frames) / float64(s.Batches)
	}
	return s
}
