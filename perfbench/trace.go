package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one interval the benchmark observed around a call into a layer.
// Spans of one request share Req; Parent names the span that caused it.
type span struct {
	Req    int     `json:"req"`
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_ms"` // since the traced phase began
	End    float64 `json:"end_ms"`
}

// tracer keeps spans in memory for the traced phase; a nil tracer records
// nothing, which is the untraced configuration.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 4096)} }

func (t *tracer) add(req int, name, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{
		Req: req, Name: name, Parent: parent,
		Start: msSince(t.t0, start), End: msSince(t.t0, end),
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func msSince(t0, t time.Time) float64 { return float64(t.Sub(t0)) / float64(time.Millisecond) }

// write saves the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return nil
}

// statsPeriod is how often the traced configuration snapshots the serving
// layer's stats, as an operator's scraper would.
const statsPeriod = 100 * time.Millisecond

// statsSampler times a stats snapshot call every statsPeriod until finish is
// called; it is part of the traced configuration only.
type statsSampler struct {
	stop chan struct{}
	done chan struct{}
	us   []float64
}

func startStatsSampler(snapshot func()) *statsSampler {
	s := &statsSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(statsPeriod)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				t := time.Now()
				snapshot()
				s.us = append(s.us, float64(time.Since(t))/float64(time.Microsecond))
			}
		}
	}()
	return s
}

// finish stops the sampler, waits for it, and returns the timed snapshots.
func (s *statsSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return s.us
}
