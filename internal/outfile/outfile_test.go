package outfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The up-front creation, truncation and CPU-profile paths are pinned
// through cyclops-sim's tests; these cover the off output and Emit's
// error reporting.

func TestOffOutputEmitsNothing(t *testing.T) {
	o, err := Create("")
	if err != nil || o != nil {
		t.Fatalf(`Create("") = %v, %v; want nil, nil`, o, err)
	}
	if err := o.Emit(func(io.Writer) error { t.Error("off output emitted"); return nil }); err != nil {
		t.Fatal(err)
	}
	stop, err := o.StartCPUProfile()
	if err != nil || stop() != nil {
		t.Fatalf("off CPU profile: %v", err)
	}
}

func TestEmitWritesAndReportsFailures(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	o, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Emit(func(w io.Writer) error { _, err := io.WriteString(w, "ok"); return err }); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(path); string(data) != "ok" {
		t.Fatalf("file = %q, want ok", data)
	}

	o, err = Create(filepath.Join(dir, "fail.txt"))
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := o.Emit(func(io.Writer) error { return boom }); !errors.Is(err, boom) ||
		!strings.Contains(err.Error(), "fail.txt") {
		t.Fatalf("emit error = %v, want the wrapped cause naming the file", err)
	}
}
