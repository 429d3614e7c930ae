package experiment

import (
	"crypto/sha256"
	"fmt"
	"io"
	"strings"
	"testing"
)

func TestRunSpotCheckOnStudy(t *testing.T) {
	st := runShortStudy(t)
	rows, err := st.RunSpotCheck()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6 case-study markets", len(rows))
	}
	for _, r := range rows {
		if r.SpotCheckPct < 0 || r.SpotCheckPct > 100 {
			t.Errorf("%v: SpotCheck availability %v out of range", r.Market, r.SpotCheckPct)
		}
		if r.SpotLightPct < 0 || r.SpotLightPct > 100 {
			t.Errorf("%v: SpotLight availability %v out of range", r.Market, r.SpotLightPct)
		}
		// The SpotLight-informed fallback must never be meaningfully
		// worse than the naive one.
		if r.SpotLightPct < r.SpotCheckPct-0.5 {
			t.Errorf("%v: SpotLight %v below naive %v", r.Market, r.SpotLightPct, r.SpotCheckPct)
		}
	}
	var sb strings.Builder
	if err := WriteFig61(&sb, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "SpotCheck%") {
		t.Error("rendered Fig 6.1 missing header")
	}
}

func TestRunSpotOnOnStudy(t *testing.T) {
	st := runShortStudy(t)
	rows, err := st.RunSpotOn(10) // few trials: the study is short
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		// A 1-hour job with 6-minute checkpoints takes at least ~1.3h.
		if r.IdealHours < 1.0 {
			t.Errorf("%v: ideal %vh below the job length", r.Market, r.IdealHours)
		}
		// Real availability can only slow the naive system down relative
		// to its assumption.
		if r.SpotOnHours < r.IdealHours-0.01 {
			t.Errorf("%v: naive %vh faster than ideal %vh", r.Market, r.SpotOnHours, r.IdealHours)
		}
		// SpotLight must not be meaningfully worse than naive.
		if r.SpotLightHours > r.SpotOnHours+0.1 {
			t.Errorf("%v: SpotLight %vh worse than naive %vh", r.Market, r.SpotLightHours, r.SpotOnHours)
		}
	}
	var sb strings.Builder
	if err := WriteFig62(&sb, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "SpotOn_h") {
		t.Error("rendered Fig 6.2 missing header")
	}
}

// TestCaseStudyTablesPinned holds the rendered Fig 6.1 and Fig 6.2 tables
// of the 6-day seed-42 shape study to digests recorded once: a change to a
// case-study replay that moves any number in either table fails here, and
// the constants change only together with a model change that CHANGES.md
// states.
func TestCaseStudyTablesPinned(t *testing.T) {
	st := shapeStudy(t)
	fig61, err := st.RunSpotCheck()
	if err != nil {
		t.Fatal(err)
	}
	fig62, err := st.RunSpotOn(40)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, sha string
		write     func(io.Writer) error
	}{
		{"Fig 6.1", "d4d518061443c7787eb4712b5803d848500922510621bf7fd7f049307b21fbaf", func(w io.Writer) error { return WriteFig61(w, fig61) }},
		{"Fig 6.2", "e9cb94568a49f6cbaefa618e1449f786d326cfbdd0f2baf735f2024fd3b18a20", func(w io.Writer) error { return WriteFig62(w, fig62) }},
	} {
		var sb strings.Builder
		if err := tc.write(&sb); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(sb.String()))); got != tc.sha {
			t.Errorf("%s SHA-256 = %s, want %s\n%s", tc.name, got, tc.sha, sb.String())
		}
	}
}
