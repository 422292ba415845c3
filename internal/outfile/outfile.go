// Package outfile is the command-line tools' output-file contract: every
// requested output is created (truncating) up front, so an unwritable
// path fails before the work runs instead of discarding its results
// afterwards. "-" names stdout and "" turns the output off.
package outfile

import (
	"fmt"
	"io"
	"os"
	"runtime/pprof"
)

// File is a pre-created output destination; a nil *File is off.
type File struct {
	path string
	f    *os.File
}

// Create creates (truncating) the named output file immediately. It
// returns nil for "" and stdout for "-".
func Create(path string) (*File, error) {
	if path == "" {
		return nil, nil
	}
	if path == "-" {
		return &File{path: path, f: os.Stdout}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cannot create output file: %w", err)
	}
	return &File{path: path, f: f}, nil
}

// Emit streams the output and closes the file; a nil receiver is off.
func (o *File) Emit(fn func(io.Writer) error) error {
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

// StartCPUProfile profiles the host CPU into o (nil = off) and returns
// the function that stops the profile and closes the file. The caller
// must call stop on every exit path: a profile left running makes the
// next start fail.
func (o *File) StartCPUProfile() (stop func() error, err error) {
	if o == nil {
		return func() error { return nil }, nil
	}
	if o.f == os.Stdout {
		return nil, fmt.Errorf("-cpuprofile needs a file, not stdout")
	}
	if err := pprof.StartCPUProfile(o.f); err != nil {
		o.f.Close()
		return nil, err
	}
	return func() error {
		return o.Emit(func(io.Writer) error {
			pprof.StopCPUProfile()
			return nil
		})
	}, nil
}
