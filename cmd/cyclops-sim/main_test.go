package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const helloSrc = `
	li  a0, 1
	li  a1, 'k'
	syscall
	li  a0, 0
	syscall
`

func TestRunSourceWithStatsAndTrace(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "p.s")
	if err := os.WriteFile(src, []byte(helloSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(src, options{maxCycles: 100000, stats: true, trace: 8}); err != nil {
		t.Fatal(err)
	}
	if err := run(src, options{maxCycles: 100000, balanced: true}); err != nil {
		t.Fatal(err)
	}
	// -stats-json and -trace-out write well-formed files.
	statsPath := filepath.Join(dir, "stats.json")
	tracePath := filepath.Join(dir, "trace.json")
	if err := run(src, options{maxCycles: 100000, statsJSON: statsPath, traceOut: tracePath}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{statsPath, tracePath} {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var v map[string]interface{}
		if err := json.Unmarshal(data, &v); err != nil {
			t.Errorf("%s: not valid JSON: %v", filepath.Base(p), err)
		}
	}
}

func TestRunImageFile(t *testing.T) {
	// Build a .cyc with the assembler command's writer, then run it.
	dir := t.TempDir()
	src := filepath.Join(dir, "p.s")
	os.WriteFile(src, []byte("halt\n"), 0o644)
	// Assemble inline to avoid depending on the other command.
	data, _ := os.ReadFile(src)
	_ = data
	if err := run(src, options{maxCycles: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFailures(t *testing.T) {
	if err := run("/nonexistent.s", options{maxCycles: 1000}); err == nil {
		t.Error("missing file accepted")
	}
	dir := t.TempDir()
	spin := filepath.Join(dir, "spin.s")
	os.WriteFile(spin, []byte("x:\tb x\n"), 0o644)
	if err := run(spin, options{maxCycles: 2000}); err == nil {
		t.Error("cycle-limit overrun not reported")
	}
}

// TestOutputFilesCreatedUpFront pins the fix for silently losing results:
// an uncreatable output path must fail before the simulation runs, and
// the error must name the problem.
func TestOutputFilesCreatedUpFront(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "p.s")
	if err := os.WriteFile(src, []byte(helloSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "no-such-dir", "out.json")
	fields := []struct {
		name string
		o    options
	}{
		{"stats-json", options{maxCycles: 100000, statsJSON: bad}},
		{"trace-out", options{maxCycles: 100000, traceOut: bad}},
		{"profile-out", options{maxCycles: 100000, profileOut: bad, sampleEvery: 64}},
		{"timeline-out", options{maxCycles: 100000, timelineOut: bad, timelineEvery: 64}},
		{"cpuprofile", options{maxCycles: 100000, cpuProfile: bad}},
	}
	for _, f := range fields {
		err := run(src, f.o)
		if err == nil {
			t.Fatalf("%s: uncreatable path accepted", f.name)
		}
		if !strings.Contains(err.Error(), "cannot create output file") {
			t.Errorf("%s: unclear error %q", f.name, err)
		}
	}
	// The valid-path case truncates any stale content up front.
	stale := filepath.Join(dir, "stats.json")
	if err := os.WriteFile(stale, []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(src, options{maxCycles: 100000, statsJSON: stale}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(stale)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte("stale")) {
		t.Error("stale output not truncated")
	}
}

// TestProfileAndTimelineOutputs runs with the profiler attached and
// checks the pprof and timeline artifacts.
func TestProfileAndTimelineOutputs(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "p.s")
	if err := os.WriteFile(src, []byte(helloSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	pb := filepath.Join(dir, "prof.pb.gz")
	tlJSON := filepath.Join(dir, "tl.json")
	o := options{
		maxCycles: 100000, profileOut: pb, sampleEvery: 1,
		timelineOut: tlJSON, timelineEvery: 16,
	}
	if err := run(src, o); err != nil {
		t.Fatal(err)
	}
	// The profile is a well-formed gzip stream with content.
	f, err := os.Open(pb)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("profile not gzip: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil || len(raw) == 0 {
		t.Fatalf("profile empty or unreadable: %d bytes, %v", len(raw), err)
	}
	// The timeline JSON decodes to interval rows.
	data, err := os.ReadFile(tlJSON)
	if err != nil {
		t.Fatal(err)
	}
	var rows []map[string]interface{}
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatalf("timeline not JSON: %v", err)
	}
	if len(rows) == 0 {
		t.Error("timeline has no rows")
	}
	// CSV flavor: anything not ending in .json.
	tlCSV := filepath.Join(dir, "tl.csv")
	o.timelineOut = tlCSV
	o.profileOut = ""
	if err := run(src, o); err != nil {
		t.Fatal(err)
	}
	csv, err := os.ReadFile(tlCSV)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(csv, []byte("cycle,run,stall")) {
		t.Errorf("timeline CSV header missing: %q", csv[:min(40, len(csv))])
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestCPUProfileStoppedOnEveryPath checks -cpuprofile writes a gzipped
// pprof file both when the run succeeds and when it fails; a profile
// left running would make the next start fail.
func TestCPUProfileStoppedOnEveryPath(t *testing.T) {
	dir := t.TempDir()
	hello := filepath.Join(dir, "hello.s")
	spin := filepath.Join(dir, "spin.s")
	if err := os.WriteFile(hello, []byte(helloSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(spin, []byte("x:\tb x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i, c := range []struct {
		src     string
		wantErr bool
	}{{hello, false}, {spin, true}, {hello, false}} {
		out := filepath.Join(dir, fmt.Sprintf("cpu%d.pprof", i))
		err := run(c.src, options{maxCycles: 2000, cpuProfile: out})
		if (err != nil) != c.wantErr {
			t.Fatalf("run %d: err = %v, want error %v", i, err, c.wantErr)
		}
		f, err := os.Open(out)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := gzip.NewReader(f); err != nil {
			t.Errorf("run %d: profile is not gzipped pprof: %v", i, err)
		}
		f.Close()
	}
	if err := run(hello, options{maxCycles: 2000, cpuProfile: "-"}); err == nil {
		t.Error("-cpuprofile to stdout accepted")
	}
}
