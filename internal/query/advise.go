package query

import (
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"spotlight/internal/advisor"
	"spotlight/pkg/api"
)

// The advise surface: POST /v2/advise is a dedicated endpoint for the
// decision layer, but it is a thin wrapper — the body's constraints are
// folded into an api.Query spec and evaluated on the same exec path as
// the KindAdvise arm of the batch envelope, with the same ETag/304
// treatment every other query gets.

// defaultAdviseWindow is the history window when the request omits one:
// the advisor's statistics cover the trailing day.
const defaultAdviseWindow = 24 * time.Hour

// maxAdviseBody bounds the decoded advise request body.
const maxAdviseBody = 1 << 16

// handleAdvise serves POST /v2/advise. The body is an api.AdviseRequest
// (send {} for "any market, trailing 24h"); the response is an
// api.AdviseResponse, or the usual error envelope on bad constraints.
func (a *API) handleAdvise(w http.ResponseWriter, r *http.Request) {
	tr := a.newTrace()
	var req api.AdviseRequest
	var aerr *api.Error
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxAdviseBody)).Decode(&req); err != nil {
		aerr = api.Errorf(api.CodeBadRequest, "bad advise body: %v", err)
	}
	q := api.Query{Kind: api.KindAdvise, Window: req.Window, Advise: &req.AdviseConstraints}
	a.conditional(w, r, &tr, string(api.KindAdvise), true, []api.Query{q}, aerr, func(now time.Time) (any, *api.Error) {
		res := a.exec(q, now)
		if res.Error != nil {
			return nil, res.Error
		}
		return api.AdviseResponse{Now: now, AdviseResult: *res.Advise}, nil
	})
}

// execAdvise evaluates one KindAdvise spec: validate the constraints
// against the catalog, resolve the window (defaulting to the trailing
// day), and rank. A nil Advise field means the zero constraints — every
// market the store has price history for.
func (a *API) execAdvise(q api.Query, now time.Time) (*api.AdviseResult, *api.Error) {
	var cons api.AdviseConstraints
	if q.Advise != nil {
		cons = *q.Advise
	}
	c, err := a.engine.adv.Normalize(cons)
	if err != nil {
		var bad *advisor.BadConstraintError
		if errors.As(err, &bad) {
			return nil, api.Errorf(api.CodeBadParam, "bad advise constraint %s: %s", bad.Param, bad.Msg).
				WithDetail("param", bad.Param)
		}
		return nil, api.Errorf(api.CodeBadRequest, "%v", err)
	}
	win := q.Window
	if win.IsZero() {
		win = api.Last(defaultAdviseWindow)
	}
	from, to, aerr := win.Resolve(now)
	if aerr != nil {
		return nil, aerr
	}
	return &api.AdviseResult{
		From:       from,
		To:         to,
		Candidates: a.engine.adv.Advise(c, from, to),
	}, nil
}
