// Command spotlight-analyze regenerates the paper's Chapter 5 figures
// from a study's dump (store.stream written by `spotlight-study -out`:
// the store's image as a follow stream), without re-running the
// simulation — the collect-once / analyze-many workflow of a real
// measurement study.
//
// Usage:
//
//	spotlight-analyze -in results/store.stream
//	spotlight-analyze -in results/store.stream -fig 5.4
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"spotlight/internal/analysis"
	"spotlight/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "spotlight-analyze:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("spotlight-analyze", flag.ContinueOnError)
	var (
		in  = fs.String("in", "store.stream", "study dump to analyze")
		fig = fs.String("fig", "", "single figure to print (e.g. 5.4); empty prints all")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	db, err := load(*in)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "loaded %s: %d probes, %d spikes, %d outages\n",
		*in, db.ProbeCount(), len(db.Spikes()), len(db.Outages()))
	return writeFigures(out, db, *fig)
}

// writeFigures writes figure fig of db as text, or every figure when fig
// is empty.
func writeFigures(out io.Writer, db *store.Store, fig string) error {
	matched := false
	for _, f := range analysis.StoreFigures(db) {
		if fig != "" && f.Label != "Fig "+fig {
			continue
		}
		matched = true
		if err := f.WriteText(out); err != nil {
			return err
		}
	}
	if !matched {
		return fmt.Errorf("unknown figure %q", fig)
	}
	return nil
}

// load follows the dump at path into a fresh store. A dump cut at a frame
// boundary ends in io.EOF as a whole one does, having applied nothing, so
// the dump is accepted only once the position closing its image has
// arrived.
func load(path string) (*store.Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	db, d := store.New(), &dump{}
	if err := db.Follow(f, d); err != io.EOF {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if !d.closed {
		return nil, fmt.Errorf("%s: the dump ends before the position closing its image", path)
	}
	return db, nil
}

// dump hears a study dump's stream: one image, closed once a position
// follows it.
type dump struct{ image, closed bool }

func (d *dump) Hello(store.Position) error { return nil }

func (d *dump) Snapshot() error {
	if d.image {
		return errors.New("a second image follows the dump's image")
	}
	d.image = true
	return nil
}

func (d *dump) Position(store.Position, uint64, uint64) error {
	d.closed = d.image
	return nil
}
