package main

import (
	"fmt"
	"io"
	"os"
	"runtime/pprof"
)

// outFile is a pre-created output destination ("-" = stdout, nil = off),
// the same contract cyclops-sim uses for its output files.
type outFile struct {
	path string
	f    *os.File
}

// createOut creates (truncating) the named output file immediately, so
// an unwritable path fails before hours of sweeps instead of discarding
// their telemetry afterwards.
func createOut(path string) (*outFile, error) {
	if path == "" {
		return nil, nil
	}
	if path == "-" {
		return &outFile{path: path, f: os.Stdout}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cannot create output file: %w", err)
	}
	return &outFile{path: path, f: f}, nil
}

// emit streams the output and closes the file; a nil receiver is off.
func (o *outFile) emit(fn func(io.Writer) error) error {
	if o == nil {
		return nil
	}
	if o.f == os.Stdout {
		return fn(o.f)
	}
	if err := fn(o.f); err != nil {
		o.f.Close()
		return fmt.Errorf("writing %s: %w", o.path, err)
	}
	if err := o.f.Close(); err != nil {
		return fmt.Errorf("writing %s: %w", o.path, err)
	}
	return nil
}

// stopCPUProfile stops a running -cpuprofile and closes its file; main's
// normal return and exit both call it, so every exit path flushes the
// profile. It is a no-op when no profile runs.
var stopCPUProfile = func() {}

// startCPUProfile profiles the host CPU into o (nil = off) until
// stopCPUProfile.
func startCPUProfile(o *outFile) error {
	if o == nil {
		return nil
	}
	if o.f == os.Stdout {
		return fmt.Errorf("-cpuprofile needs a file, not stdout")
	}
	if err := pprof.StartCPUProfile(o.f); err != nil {
		o.f.Close()
		return err
	}
	stopCPUProfile = func() {
		stopCPUProfile = func() {}
		if err := o.emit(func(io.Writer) error {
			pprof.StopCPUProfile()
			return nil
		}); err != nil {
			fmt.Fprintln(os.Stderr, "cyclops-bench:", err)
		}
	}
	return nil
}

// exit flushes the CPU profile, if any, and ends the process.
func exit(code int) {
	stopCPUProfile()
	os.Exit(code)
}
