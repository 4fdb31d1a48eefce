package main

import (
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// checkExact reports whether got holds exactly the reference logits, bit for
// bit. Full-fidelity responses must reproduce a direct pipeline run.
func checkExact(got *model.Output, want *tensor.Matrix) error {
	if got == nil || got.Logits == nil {
		return fmt.Errorf("no logits")
	}
	g := got.Logits
	if g.Rows != want.Rows || g.Cols != want.Cols {
		return fmt.Errorf("logits %dx%d, reference %dx%d", g.Rows, g.Cols, want.Rows, want.Cols)
	}
	for i, v := range g.Data {
		if math.Float32bits(v) != math.Float32bits(want.Data[i]) {
			return fmt.Errorf("logit %d = %v, reference %v", i, v, want.Data[i])
		}
	}
	return nil
}

// checkShapeFinite is the check for degraded-tier responses, which compute
// different numbers by design: the reference shape and only finite values.
func checkShapeFinite(got *model.Output, want *tensor.Matrix) error {
	if got == nil || got.Logits == nil {
		return fmt.Errorf("no logits")
	}
	g := got.Logits
	if g.Rows != want.Rows || g.Cols != want.Cols {
		return fmt.Errorf("logits %dx%d, reference %dx%d", g.Rows, g.Cols, want.Rows, want.Cols)
	}
	for i, v := range g.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return fmt.Errorf("logit %d is %v", i, v)
		}
	}
	return nil
}

// checkServed applies the tier's output check.
func checkServed(res serve.Result, want *tensor.Matrix) error {
	if res.Tier == 0 {
		return checkExact(res.Output, want)
	}
	return checkShapeFinite(res.Output, want)
}

// tally classifies every offered open-loop request into exactly one class.
// good, late and checkFailed are the router's completions; deadline and
// errored its failures; the rest its three shed classes. Only good requests
// count toward goodput.
type tally struct {
	Offered     int `json:"offered"`
	Good        int `json:"good"`
	Late        int `json:"late"`
	CheckFailed int `json:"check_failed"`
	Throttled   int `json:"throttled"`
	Shed        int `json:"shed"`
	QueueFull   int `json:"queue_full"`
	Deadline    int `json:"deadline"`
	Errored     int `json:"errored"`
}

func (t tally) completed() int { return t.Good + t.Late + t.CheckFailed }
func (t tally) sheds() int     { return t.Throttled + t.Shed + t.QueueFull }

// checkAccounting cross-checks the benchmark's own per-request tally against
// the router's counters over the window (after minus before), and runs the
// router's conservation law on the final snapshot.
func checkAccounting(t tally, before, after serve.RouterStats) error {
	if err := after.Conservation(); err != nil {
		return err
	}
	sum := t.completed() + t.sheds() + t.Deadline + t.Errored
	if sum != t.Offered {
		return fmt.Errorf("accounting: classes sum to %d, offered %d", sum, t.Offered)
	}
	pairs := []struct {
		name   string
		mine   int
		router uint64
	}{
		{"offered", t.Offered, after.Offered - before.Offered},
		{"completed", t.completed(), after.Completed - before.Completed},
		{"failed", t.Deadline + t.Errored, after.Failed - before.Failed},
		{"throttled", t.Throttled, after.ShedThrottled - before.ShedThrottled},
		{"shed", t.Shed, after.ShedOverload - before.ShedOverload},
		{"queue_full", t.QueueFull, after.ShedQueueFull - before.ShedQueueFull},
	}
	for _, p := range pairs {
		if uint64(p.mine) != p.router {
			return fmt.Errorf("accounting: %s: benchmark counted %d, router %d", p.name, p.mine, p.router)
		}
	}
	return nil
}
