package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/snapwire"
	"repro/internal/synth"
	"repro/internal/topicmodel"
)

// writeImage builds a small personalized engine and writes its wire
// image into dir.
func writeImage(t *testing.T, dir string) string {
	t.Helper()
	w := synth.Generate(synth.Config{Seed: 51, NumFacets: 6, NumUsers: 12, SessionsPerUser: 15})
	eng, err := core.NewEngine(w.Log, core.Config{
		Compact: bipartite.CompactConfig{Budget: 60},
		UPM:     topicmodel.UPMConfig{K: 6, Iterations: 25, Seed: 1, HyperRounds: 1, HyperIters: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	img, err := eng.WireImage()
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "engine.bin")
	if err := os.WriteFile(out, img, 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestInspectAndVerifyOutput(t *testing.T) {
	out := writeImage(t, t.TempDir())

	var buf bytes.Buffer
	if err := run([]string{"inspect", out}, &buf); err != nil {
		t.Fatalf("inspect: %v", err)
	}
	text := buf.String()
	for _, want := range []string{"snapwire v1", "meta", "mat-rowptr/0", "sym-tokptr", "sessions"} {
		if !strings.Contains(text, want) {
			t.Fatalf("inspect output missing %q:\n%s", want, text)
		}
	}

	buf.Reset()
	if err := run([]string{"verify", out}, &buf); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if !strings.Contains(buf.String(), "OK") || !strings.Contains(buf.String(), "profiles: yes") {
		t.Fatalf("verify output: %s", buf.String())
	}
}

func TestCommandErrors(t *testing.T) {
	// inspect/verify refuse an encoding/gob stream at the magic check.
	gobFile := filepath.Join(t.TempDir(), "engine.gob")
	if err := os.WriteFile(gobFile, []byte("\x1f\xff\x81\x03\x01\x01\nengineWire\x01\xff\x82\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, cmd := range []string{"inspect", "verify"} {
		err := run([]string{cmd, gobFile}, new(bytes.Buffer))
		if !errors.Is(err, snapwire.ErrFormat) || !strings.Contains(err.Error(), "bad magic") {
			t.Fatalf("%s on gob: %v", cmd, err)
		}
	}

	// Bad usage names the two subcommands.
	err := run(nil, new(bytes.Buffer))
	if err == nil || !strings.Contains(err.Error(), "inspect FILE | verify FILE") {
		t.Fatalf("no args: %v", err)
	}
	if err := run([]string{"inspect"}, new(bytes.Buffer)); err == nil {
		t.Fatal("inspect without a file accepted")
	}
	if err := run([]string{"frobnicate"}, new(bytes.Buffer)); err == nil {
		t.Fatal("unknown command accepted")
	}
}
