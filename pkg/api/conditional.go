package api

import "strings"

// Conditional requests.
//
// Every successful query response — GET /v1/* and POST /v2/query alike —
// carries a strong ETag derived from the query parameters and the append
// generation of the store scope the answer reads. Replaying the same
// request with the tag in If-None-Match yields 304 Not Modified with an
// empty body until the scope changes: an append to any market the query
// could observe produces a new tag, while appends elsewhere leave it
// valid.
//
// Two query shapes also bind the tag to the service clock, because their
// answers change as time passes even without appends: relative windows
// ("window=24h") resolve against now, and the summary measures ongoing
// outages to now. Their tags differ whenever the clock differs.
//
// For /v2/query the tag covers the whole batch; the BatchResponse.Now
// echo is evaluation metadata and intentionally excluded — a 304 asserts
// the results are unchanged, not the clock reading.
//
// Tags are salted with the serving process's boot instant, so a service
// restart retires every outstanding tag (the first replay simply fetches
// fresh data). Error responses never carry an ETag.
const (
	// HeaderETag is the response header carrying the scope-generation tag.
	HeaderETag = "ETag"
	// HeaderIfNoneMatch is the request header revalidating a held tag.
	HeaderIfNoneMatch = "If-None-Match"
)

// ETagMatches implements If-None-Match against one strong ETag — the
// comparison a node answers 304 by: a comma-separated
// candidate list, each compared after trimming and ignoring a
// weak-validator prefix, with "*" matching anything.
func ETagMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, cand := range strings.Split(header, ",") {
		cand = strings.TrimSpace(cand)
		cand = strings.TrimPrefix(cand, "W/")
		if cand == "*" || cand == etag {
			return true
		}
	}
	return false
}
