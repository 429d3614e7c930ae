package replica

import (
	"encoding/json"
	"testing"
)

// FuzzCursorDecode feeds decodeCursor arbitrary cursor.json bytes: each
// input is rejected with an error or accepted, never a panic, and an
// accepted cursor, marshalled again as persistCursor writes it, decodes
// to the same fields.
func FuzzCursorDecode(f *testing.F) {
	for _, seed := range []string{
		`{"version":1,"salt":"5eed","lastEventId":"7-42","leaderGen":42,"clock":"2015-09-02T00:00:00Z","generation":40}` + "\n",
		`{"version":1,"salt":"ffffffffffffffff","lastEventId":"","leaderGen":0,"clock":"0001-01-01T00:00:00Z","generation":0}`,
		`{"version":1,"salt":"5eed","clock":"2015-09-02T01:00:00.5+01:00","counts":{"m":3}}`,
		`{"version":2,"salt":"5eed"}`,
		`{"version":1,"salt":"not-hex"}`,
		`{"version":1,"salt":"5eed","leaderGen":-1}`,
		`{"version":1,`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cur, salt, err := decodeCursor(data)
		if err != nil {
			return
		}
		again, err := json.Marshal(cur)
		if err != nil {
			t.Fatalf("%q: accepted cursor %+v does not marshal: %v", data, cur, err)
		}
		cur2, salt2, err := decodeCursor(again)
		if err != nil {
			t.Fatalf("%q: re-marshalled cursor %s rejected: %v", data, again, err)
		}
		if salt2 != salt || cur2.Salt != cur.Salt || cur2.LastEventID != cur.LastEventID ||
			cur2.LeaderGen != cur.LeaderGen || cur2.Generation != cur.Generation || !cur2.Clock.Equal(cur.Clock) {
			t.Fatalf("%q: round trip %+v (salt %x) -> %+v (salt %x)", data, cur, salt, cur2, salt2)
		}
	})
}
