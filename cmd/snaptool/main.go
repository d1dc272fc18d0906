// Command snaptool inspects and verifies engine snapshot images (the
// snapwire format documented in DESIGN.md).
//
//	snaptool inspect engine.bin  # header, section table, sizes
//	snaptool verify engine.bin   # full checksum + assembly check
package main

import (
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/snapwire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "snaptool:", err)
		os.Exit(1)
	}
}

func usage() error {
	return errors.New("usage: snaptool inspect FILE | verify FILE")
}

func run(args []string, out io.Writer) error {
	if len(args) < 1 {
		return usage()
	}
	switch cmd := args[0]; cmd {
	case "inspect":
		if len(args) != 2 {
			return usage()
		}
		return inspect(args[1], out)
	case "verify":
		if len(args) != 2 {
			return usage()
		}
		return verify(args[1], out)
	default:
		return fmt.Errorf("unknown command %q\n%v", cmd, usage())
	}
}

// inspect prints the validated header and section table. Parsing the
// header already checks every checksum, so a file that inspects also
// has intact bytes; `verify` additionally proves it assembles.
func inspect(path string, out io.Writer) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	h, err := snapwire.Inspect(buf)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s: snapwire v%d, %d bytes, %d sections\n", path, h.Version, len(buf), len(h.Sections))
	fmt.Fprintf(out, "%-24s %10s %10s %10s\n", "SECTION", "OFFSET", "BYTES", "CRC32C")
	for _, s := range h.Sections {
		fmt.Fprintf(out, "%-24s %10d %10d   %08x\n", s.Name(), s.Offset, s.Length, s.CRC)
	}
	return nil
}

// verify runs the full load path — checksums, bounds, structural
// cross-validation, session decode — and summarizes the image.
func verify(path string, out io.Writer) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := snapwire.Verify(buf); err != nil {
		return err
	}
	l, err := snapwire.Load(buf)
	if err != nil {
		return err
	}
	sessions, err := l.DecodeSessions()
	if err != nil {
		return err
	}
	profiles := "no"
	if l.Meta.HasUPM {
		profiles = "yes"
	}
	fmt.Fprintf(out, "%s: OK (v%d, %d bytes, %d sections, %d queries, %d sessions, profiles: %s)\n",
		path, l.Version, l.Size, len(l.Sections), l.Snap.Rep.NumQueries(), len(sessions), profiles)
	return nil
}
