package serve

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/pipeline"
)

// ErrStalled reports a frame abandoned by the stall watchdog: its worker
// was stuck on one frame past Config.StallTimeout (a wedged forward pass, a
// hung allocator, injected faultinject.OpStall chaos), so the batch was
// failed in place rather than letting the requests — and, with a Rebuild
// hook, the pool slot — wedge forever. Stalls count toward the same
// circuit breaker as panics.
var ErrStalled = errors.New("serve: worker stalled")

// watchdog is the engine's stall detector, armed by Config.StallTimeout > 0:
// it periodically sweeps the pool slots and deposes any worker whose
// frame-start heartbeat is older than StallTimeout. Sweeps run at a quarter
// of the timeout so detection latency stays within ~1.25× StallTimeout.
// The leading deferred guard is the package invariant — no panic may escape
// a serve goroutine — enforced statically by the gorecover analyzer:
//
//edgepc:goroutines-must-recover
func (e *Engine) watchdog() {
	defer e.watchdogRecover()
	defer e.wg.Done()
	tick := e.cfg.StallTimeout / 4
	if tick <= 0 {
		tick = time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-e.closing:
			return
		case <-ticker.C:
		}
		cutoff := time.Now().Add(-e.cfg.StallTimeout).UnixNano()
		for i := range e.slots {
			w := e.slots[i].Load()
			if w == nil {
				continue // slot retired (respawn budget exhausted)
			}
			if b := w.beat.Load(); b == 0 || b > cutoff {
				continue // idle or making progress
			}
			e.depose(w)
		}
	}
}

// watchdogRecover is the watchdog goroutine's recover guard: a panic in the
// sweep must not kill the process. The watchdog itself dies (stall
// detection stops), which is the lesser failure; the capture shows up in
// Stats().LastPanic like any other contained panic.
func (e *Engine) watchdogRecover() {
	if v := recover(); v != nil {
		e.panics.Add(1)
		e.notePanic(-1, v)
	}
}

// depose handles one wedged incarnation. With a Rebuild hook the slot is
// fully recovered: claim the incarnation (the deposed CAS — the same claim
// its own exit path uses, so exactly one side wins), fail its published
// batch with ErrStalled, release its wg slot on its behalf (Close must
// never wait out a goroutine that may be stuck forever), and respawn the
// slot with freshly rebuilt replicas — the wedged ones are unrecoverable,
// still pinned by the zombie goroutine. The stall counts toward the circuit
// breaker exactly like a panic streak: the replacement inherits the
// consecutive-failure count and parks before its first batch once the
// streak crosses PanicTrip.
//
// Without a Rebuild hook the replicas cannot be replaced, so the watchdog
// only fails the batch in place (once per batch, via the stalled latch) and
// leaves the worker to unstick on its own — requests are unblocked either
// way, which is the contract that matters.
func (e *Engine) depose(w *worker) {
	if e.cfg.Rebuild == nil {
		if w.stalled.CompareAndSwap(false, true) {
			e.failStalledBatch(w)
		}
		return
	}
	if !w.deposed.CompareAndSwap(false, true) {
		return // the incarnation exited (or was claimed) concurrently
	}
	e.failStalledBatch(w)
	replaced := false
	if int(w.respawns.Load()) < maxRespawns {
		nets := make([]pipeline.Net, len(w.nets))
		ok := true
		for t := range nets {
			n, err := e.cfg.Rebuild(w.id, t)
			if err != nil || n == nil {
				ok = false
				break
			}
			nets[t] = n
		}
		if ok {
			nw := &worker{id: w.id, nets: nets, batch: make([]*request, 0, e.cfg.MaxBatch)}
			nw.consec.Store(w.consec.Load() + 1)
			nw.trips.Store(w.trips.Load())
			nw.respawns.Store(w.respawns.Load() + 1)
			if nw.consec.Load() >= int32(e.cfg.PanicTrip) {
				nw.consec.Store(0)
				nw.pendingTrip = true
			}
			e.respawns.Add(1)
			e.slots[w.id].Store(nw)
			e.wg.Add(1)
			go e.workerLoop(nw)
			replaced = true
		}
	}
	if !replaced {
		// Respawn budget exhausted or rebuild failed: retire the slot. The
		// remaining workers carry the pool; a retired slot stays visible in
		// Stats via the respawn/stall counters.
		e.slots[w.id].CompareAndSwap(w, nil)
	}
	e.wg.Done() // release the wedged incarnation's slot
}

// failStalledBatch fails every request the wedged worker published for its
// current batch. Delivery goes through the per-request claim, so a zombie
// that unsticks mid-loop cannot double-complete anything and the stall
// counter moves only for requests this call actually claimed — before the
// send, so the failed caller already sees it in Stats.
func (e *Engine) failStalledBatch(w *worker) {
	err := fmt.Errorf("%w: worker %d stuck past %v", ErrStalled, w.id, e.cfg.StallTimeout)
	tier := e.ladder.Tier()
	w.liveMu.Lock()
	n := len(w.live)
	for _, r := range w.live {
		if r == nil || !r.claim() {
			continue
		}
		e.stalls.Add(1)
		r.reply <- Result{Err: err, Worker: w.id, BatchSize: n, Tier: tier, Wait: time.Since(r.enq), Total: time.Since(r.enq)}
	}
	w.liveMu.Unlock()
}
