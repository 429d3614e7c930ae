package analysis

import (
	"encoding/csv"
	"strings"
	"testing"
	"time"

	"spotlight/internal/market"
	"spotlight/internal/store"
)

// parseCSV parses and sanity-checks rectangularity.
func parseCSV(t *testing.T, s string) [][]string {
	t.Helper()
	rows, err := csv.NewReader(strings.NewReader(s)).ReadAll()
	if err != nil {
		t.Fatalf("invalid csv: %v", err)
	}
	if len(rows) < 1 {
		t.Fatal("empty csv")
	}
	width := len(rows[0])
	for i, r := range rows {
		if len(r) != width {
			t.Fatalf("row %d width %d != header width %d", i, len(r), width)
		}
	}
	return rows
}

func TestFig54CSV(t *testing.T) {
	db := store.New()
	db.AppendSpike(store.SpikeEvent{At: t0, Market: mktA, Ratio: 2.5})
	odOutage(db, mktA, t0.Add(time.Minute), t0.Add(10*time.Minute))
	var sb strings.Builder
	if err := Fig54GlobalUnavailability(db, nil).WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, sb.String())
	if rows[0][0] != "window_s" || rows[0][1] != ">0" {
		t.Errorf("header = %v", rows[0])
	}
	if len(rows) != 1+len(Fig54Windows) {
		t.Errorf("rows = %d, want %d", len(rows), 1+len(Fig54Windows))
	}
}

func TestAllFigureCSVsAreWellFormed(t *testing.T) {
	db := store.New()
	db.AppendSpike(store.SpikeEvent{At: t0, Market: mktA, Ratio: 2})
	spotProbe(db, mktA, 0.05, true)
	spotProbe(db, mktB, 0.3, false)
	odOutage(db, mktA, t0.Add(time.Minute), t0.Add(10*time.Minute))
	db.AppendBidSpread(store.BidSpreadRecord{At: t0, Market: mktA, Published: 0.1, Intrinsic: 0.12, Attempts: 2})
	db.RecordPrice(mktA, store.PricePoint{At: t0, Price: 0.1})
	db.RecordPrice(mktA, store.PricePoint{At: t0.Add(time.Hour), Price: 0.5})
	cat := market.New()

	writers := map[string]func(sb *strings.Builder) error{
		"fig54":  func(sb *strings.Builder) error { return Fig54GlobalUnavailability(db, nil).WriteCSV(sb) },
		"fig55":  func(sb *strings.Builder) error { return Fig55RegionRejectShare(db).WriteCSV(sb) },
		"fig56":  func(sb *strings.Builder) error { return Fig56RegionUnavailability(db, 0).WriteCSV(sb) },
		"fig57":  func(sb *strings.Builder) error { return Fig57TriggerBreakdown(db).WriteCSV(sb) },
		"fig58":  func(sb *strings.Builder) error { return Fig58CrossAZ(db, nil).WriteCSV(sb) },
		"fig59":  func(sb *strings.Builder) error { return Fig59OutageDurationCDF(db).WriteCSV(sb) },
		"fig510": func(sb *strings.Builder) error { return Fig510SpotUnavailability(db).WriteCSV(sb) },
		"fig511": func(sb *strings.Builder) error { return Fig511SpotInsufficiencyDist(db).WriteCSV(sb) },
		"fig512": func(sb *strings.Builder) error { return Fig512CrossKind(db, nil).WriteCSV(sb) },
		"fig52":  func(sb *strings.Builder) error { return Fig52IntrinsicPrice(db, mktA).WriteCSV(sb) },
		"trace": func(sb *strings.Builder) error {
			tr, err := Fig21PriceTrace(db, cat, mktA, t0, t0.Add(2*time.Hour))
			if err != nil {
				return err
			}
			return tr.WriteCSV(sb)
		},
		"fig53": func(sb *strings.Builder) error {
			f, err := Fig53HoldPrices(db, cat, mktA, t0, t0.Add(2*time.Hour), nil, 0)
			if err != nil {
				return err
			}
			return f.WriteCSV(sb)
		},
	}
	for name, write := range writers {
		var sb strings.Builder
		if err := write(&sb); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		rows := parseCSV(t, sb.String())
		if len(rows) < 2 && name != "fig55" && name != "fig511" {
			t.Errorf("%s: only %d rows", name, len(rows))
		}
	}
}

func TestFig53CSVColumns(t *testing.T) {
	db := tracedStore()
	cat := market.New()
	f, err := Fig53HoldPrices(db, cat, mktA, t0, t0.Add(3*time.Hour), []int{1, 3}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := f.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, sb.String())
	want := []string{"at", "spot", "hold_1h", "hold_3h", "od_price"}
	for i, col := range want {
		if rows[0][i] != col {
			t.Errorf("header[%d] = %q, want %q", i, rows[0][i], col)
		}
	}
	if len(rows) != 5 { // header + 4 sampled hours
		t.Errorf("rows = %d, want 5", len(rows))
	}
}
