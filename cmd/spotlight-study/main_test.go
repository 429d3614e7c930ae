package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunTinyStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("study command test skipped in -short mode")
	}
	dir := t.TempDir()
	var sb strings.Builder
	err := run([]string{
		"-days", "1",
		"-seed", "9",
		"-trials", "5",
		"-quiet",
		"-out", dir,
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"Table 2.1", "Fig 2.1", "Fig 5.4", "Fig 5.10", "Fig 5.12",
		"Fig 6.1", "Fig 6.2", "SpotCheck%", "SpotOn_h",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("study output missing %q", want)
		}
	}
	for _, f := range []string{
		"probes.csv", "prices.csv", "store.json",
		"fig2_1.csv", "fig5_2.csv", "fig5_3.csv", "fig5_4.csv", "fig5_5.csv",
		"fig5_6.csv", "fig5_7.csv", "fig5_8.csv", "fig5_9.csv",
		"fig5_10.csv", "fig5_11.csv", "fig5_12.csv",
	} {
		info, err := os.Stat(filepath.Join(dir, f))
		if err != nil {
			t.Errorf("dump file %s missing: %v", f, err)
			continue
		}
		if info.Size() == 0 {
			t.Errorf("dump file %s is empty", f)
		}
	}
}

func TestRunRegionFilter(t *testing.T) {
	if testing.Short() {
		t.Skip("study command test skipped in -short mode")
	}
	var sb strings.Builder
	err := run([]string{
		"-days", "1", "-seed", "3", "-trials", "2", "-quiet",
		"-regions", "sa-east-1",
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "sa-east-1") {
		t.Error("filtered study output missing the selected region")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-days", "not-a-number"}, &sb); err == nil {
		t.Error("bad flag accepted")
	}
}
