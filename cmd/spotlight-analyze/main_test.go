package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spotlight/internal/experiment"
	"spotlight/internal/market"
	"spotlight/internal/store"
)

// writeDump dumps st to disk as `spotlight-study -out` does.
func writeDump(t *testing.T, st *experiment.Study) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.stream")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := st.WriteDump(f); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeSnapshot dumps a tiny synthetic store to disk.
func writeSnapshot(t *testing.T) string {
	t.Helper()
	db := store.New()
	m := market.SpotID{Zone: "us-east-1d", Type: "c3.2xlarge", Product: market.ProductLinux}
	t0 := time.Date(2015, 9, 1, 0, 0, 0, 0, time.UTC)
	db.AppendSpike(store.SpikeEvent{At: t0, Market: m, Ratio: 2, Probed: true})
	db.AppendProbe(store.ProbeRecord{
		At: t0, Market: m, Kind: store.ProbeOnDemand,
		Trigger: store.TriggerSpike, TriggerMarket: m, Rejected: true, Code: "x",
	})
	db.AppendProbe(store.ProbeRecord{
		At: t0.Add(10 * time.Minute), Market: m, Kind: store.ProbeOnDemand,
		Trigger: store.TriggerRecheck, TriggerMarket: m,
	})
	return writeDump(t, &experiment.Study{DB: db, Start: t0, End: t0.Add(time.Hour)})
}

func TestAnalyzeAllFigures(t *testing.T) {
	path := writeSnapshot(t)
	var sb strings.Builder
	if err := run([]string{"-in", path}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"loaded", "Fig 5.4", "Fig 5.12", "1 outages"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestAnalyzeSingleFigure(t *testing.T) {
	path := writeSnapshot(t)
	var sb strings.Builder
	if err := run([]string{"-in", path, "-fig", "5.9"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Fig 5.9") {
		t.Error("missing requested figure")
	}
	if strings.Contains(out, "Fig 5.4") {
		t.Error("printed figures beyond the requested one")
	}
}

func TestAnalyzeErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-in", "/nonexistent/store.stream"}, &sb); err == nil {
		t.Error("missing input accepted")
	}
	path := writeSnapshot(t)
	if err := run([]string{"-in", path, "-fig", "99.9"}, &sb); err == nil {
		t.Error("unknown figure accepted")
	}
}

// TestAnalyzeRefusesDamagedDumps: every proper prefix of a dump — cut at a
// frame boundary, where Follow ends in io.EOF as it does on a whole dump,
// or inside a frame — garbage, and a dump with bytes after its closing
// position are refused, never analyzed as an emptier store.
func TestAnalyzeRefusesDamagedDumps(t *testing.T) {
	whole, err := os.ReadFile(writeSnapshot(t))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	refused := func(what string, data []byte) {
		t.Helper()
		path := filepath.Join(dir, "store.stream")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := run([]string{"-in", path}, &sb); err == nil {
			t.Errorf("%s accepted: %.200s", what, sb.String())
		}
	}
	for n := range len(whole) {
		refused(fmt.Sprintf("the dump cut to %d of %d bytes", n, len(whole)), whole[:n])
	}
	refused("garbage", []byte("not a dump"))
	refused("a dump with a trailing byte", append(bytes.Clone(whole), 0))
	refused("two dumps back to back", append(bytes.Clone(whole), whole...))
}

// TestStudyDumpAnalyzesAsLive is collect-once/analyze-many end to end: a
// seeded study's dump, written as `spotlight-study -out` writes it and
// analyzed from disk, gives every figure the text the live study's store
// gives it.
func TestStudyDumpAnalyzesAsLive(t *testing.T) {
	st, err := experiment.Run(experiment.Config{Seed: 7, Days: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := writeDump(t, st)
	var got, want strings.Builder
	if err := run([]string{"-in", path}, &got); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&want, "loaded %s: %d probes, %d spikes, %d outages\n",
		path, st.DB.ProbeCount(), len(st.DB.Spikes()), len(st.DB.Outages()))
	if err := writeFigures(&want, st.DB, ""); err != nil {
		t.Fatal(err)
	}
	if st.DB.ProbeCount() == 0 || got.String() != want.String() {
		t.Errorf("the analyzed dump differs from the live study:\n got: %s\nwant: %s", got.String(), want.String())
	}
}
