package edgepc_test

import (
	"os/exec"
	"strings"
	"testing"
)

// Smoke tests for the command-line binaries: each must build and complete a
// minimal invocation. Run via `go run` so no artifacts are left behind.
func TestCommandSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"edgepc-info", []string{"run", "./cmd/edgepc", "info", "-gen", "sphere", "-points", "500"}, "points: 500"},
		{"edgepc-sample", []string{"run", "./cmd/edgepc", "sample", "-gen", "sphere", "-points", "400", "-n", "40"}, "coverage radius"},
		{"edgepc-bench-list", []string{"run", "./cmd/edgepc-bench", "-list"}, "fig13"},
		{"edgepc-bench-list-backends", []string{"run", "./cmd/edgepc-bench", "-list-backends"}, "blocked"},
		{"edgepc-bench-quick", []string{"run", "./cmd/edgepc-bench", "-quick", "table1"}, "W6"},
		{"edgepc-bench-backend", []string{"run", "./cmd/edgepc-bench", "-quick", "-backend", "blocked", "fig3"}, "W6"},
		{"edgepc-serve-quick", []string{"run", "./cmd/edgepc-serve", "-quick", "-workload", "W1", "-frames", "6", "-clients", "2", "-workers", "2"}, "served 6 frames"},
		{"edgepc-serve-backend", []string{"run", "./cmd/edgepc-serve", "-quick", "-backend", "blocked", "-workload", "W1", "-frames", "6", "-clients", "2", "-workers", "2"}, "compute backend: blocked"},
		{"edgepc-serve-chaos", []string{"run", "./cmd/edgepc-serve", "-quick", "-workload", "W3", "-frames", "8", "-clients", "2", "-workers", "2", "-degrade", "1", "-chaos-panic", "0.2"}, "resilience:"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			out, err := exec.Command("go", c.args...).CombinedOutput()
			if err != nil {
				t.Fatalf("%v: %v\n%s", c.args, err, out)
			}
			if !strings.Contains(string(out), c.want) {
				t.Fatalf("%v: output lacks %q:\n%s", c.args, c.want, out)
			}
		})
	}
}

// TestCommandSmokeFailures: a bad invocation must fail loudly — nonzero exit
// and a diagnostic on stderr — not serve a default.
func TestCommandSmokeFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	cases := []struct {
		name string
		args []string
		want string // substring of the diagnostic
	}{
		{"edgepc-serve-bad-workload", []string{"run", "./cmd/edgepc-serve", "-quick", "-workload", "W9"}, "unknown workload"},
		{"edgepc-serve-bad-config", []string{"run", "./cmd/edgepc-serve", "-quick", "-config", "turbo"}, "unknown config"},
		{"edgepc-serve-bad-flag", []string{"run", "./cmd/edgepc-serve", "-no-such-flag"}, "flag provided but not defined"},
		{"edgepc-serve-bad-degrade", []string{"run", "./cmd/edgepc-serve", "-quick", "-degrade", "9"}, "degrade must be"},
		// A typo'd backend name must name the registered set, mirroring the
		// RegisterArch error style.
		{"edgepc-serve-bad-backend", []string{"run", "./cmd/edgepc-serve", "-quick", "-backend", "fp16"}, "no backend registered for \"fp16\" (registered: blocked, naive)"},
		// There is no quantized backend: -backend int8 fails like any unknown name.
		{"edgepc-serve-int8-backend", []string{"run", "./cmd/edgepc-serve", "-quick", "-backend", "int8"}, "no backend registered for \"int8\" (registered: blocked, naive)"},
		{"edgepc-bench-bad-backend", []string{"run", "./cmd/edgepc-bench", "-quick", "-backend", "fp16", "fig3"}, "no backend registered for \"fp16\" (registered: blocked, naive)"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			out, err := exec.Command("go", c.args...).CombinedOutput()
			if err == nil {
				t.Fatalf("%v: expected nonzero exit, got success:\n%s", c.args, out)
			}
			if _, ok := err.(*exec.ExitError); !ok {
				t.Fatalf("%v: did not run: %v", c.args, err)
			}
			if !strings.Contains(string(out), c.want) {
				t.Fatalf("%v: diagnostic lacks %q:\n%s", c.args, c.want, out)
			}
		})
	}
}
