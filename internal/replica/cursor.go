package replica

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"spotlight/internal/store"
)

// The durable stream cursor. A follower with a durable store persists,
// after every applied-and-flushed batch, exactly where in the leader's
// stream the flushed records end: the leader's ETag salt (the stream
// epoch), the newest resume token, and — the part that makes resume
// exactly-once — the per-market record counts at that position.
//
// Why per-market counts and not just the token: WAL recovery is always
// an exact prefix of the store's append history, but a crash
// between a Flush and the cursor write (or a torn cursor write, which
// writeFileAtomic turns into "the previous cursor") leaves the recovered
// store *ahead* of the cursor. Resuming the stream from the cursor token
// would then re-deliver records the store already holds. The stream
// preserves per-market order, so the surplus is exactly the first
// (recovered generation − cursor count) events of each market: the
// replicator counts them off and skips them, and the follower's
// generations — and therefore its ETags — come out identical to a
// follower that never restarted.
//
// The inverse gap (cursor ahead of the recovered store) can only happen
// outside the WAL's process-crash contract (a machine crash losing
// kernel-buffered log bytes); the skip arithmetic clamps at zero and
// the lost records stay lost, same as they would on the leader.
const cursorVersion = 1

// cursorFile is the JSON schema persisted via store.Persister.SaveCursor.
type cursorFile struct {
	Version int `json:"version"`
	// Salt is the leader's ETag salt in hex — the same rendering the
	// stream hello carries. A hello whose salt differs means the leader
	// is a different store history and the local replica is invalid.
	Salt string `json:"salt"`
	// LastEventID is the newest resume token whose records are flushed.
	LastEventID string `json:"lastEventId"`
	// LeaderGen is the newest leader generation observed.
	LeaderGen uint64 `json:"leaderGen"`
	// Clock is the newest leader instant observed.
	Clock time.Time `json:"clock"`
	// Markets maps market ID to the number of that market's records
	// applied at this stream position.
	Markets map[string]uint64 `json:"markets"`
}

// encodeCursor renders the replicator's current position.
func (r *Replicator) encodeCursor() []byte {
	r.mu.Lock()
	lastID := r.lastID
	r.mu.Unlock()
	cur := cursorFile{
		Version:     cursorVersion,
		Salt:        strconv.FormatUint(r.salt.Load(), 16),
		LastEventID: lastID,
		LeaderGen:   r.leaderGen.Load(),
		Clock:       r.Clock(),
		Markets:     r.counts, // owned by the apply goroutine calling us
	}
	data, err := json.Marshal(cur)
	if err != nil {
		return nil // map[string]uint64 + scalars cannot fail to marshal
	}
	return append(data, '\n')
}

// loadCursor recovers the stream position persisted by a previous life
// of this data directory and arms the skip counters that make resume
// exactly-once over the recovered store. Returns false when no (or an
// unreadable) cursor exists — the follower then attaches like a fresh
// one, re-tailing with Backfill.
func (r *Replicator) loadCursor(p *store.Persister) (bool, error) {
	data, ok, err := p.LoadCursor()
	if err != nil || !ok {
		return false, err
	}
	var cur cursorFile
	if err := json.Unmarshal(data, &cur); err != nil {
		return false, fmt.Errorf("replica: decode cursor: %w", err)
	}
	if cur.Version != cursorVersion {
		return false, fmt.Errorf("replica: cursor version %d is not %d", cur.Version, cursorVersion)
	}
	salt, err := strconv.ParseUint(cur.Salt, 16, 64)
	if err != nil {
		return false, fmt.Errorf("replica: cursor salt %q: %w", cur.Salt, err)
	}

	// Adopt the persisted identity immediately: the follower can mint
	// leader-compatible ETags (and close Ready) from its recovered state
	// before the stream even reattaches.
	r.salt.Store(salt)
	r.saltKnown.Store(true)
	if !cur.Clock.IsZero() {
		r.advanceClock(cur.Clock)
	}
	maxUint(&r.leaderGen, cur.LeaderGen)
	r.mu.Lock()
	r.lastID = cur.LastEventID
	r.mu.Unlock()
	r.resumeID = cur.LastEventID

	// Stream position = the cursor's counts; whatever the recovered
	// store holds beyond them was flushed after the cursor was written
	// and will be re-delivered first — count it off instead of applying
	// it twice.
	r.counts = cur.Markets
	if r.counts == nil {
		r.counts = make(map[string]uint64)
	}
	r.recovered = make(map[string]uint64)
	for _, id := range r.cfg.DB.Markets() {
		key := id.String()
		if g := r.cfg.DB.Generation(id); g > 0 {
			r.recovered[key] = g
			if r.counts[key] > g {
				// Beyond the process-crash contract (machine crash ate
				// flushed bytes): the records between g and the cursor
				// count are gone; resume past them rather than double-
				// apply whatever the stream sends next.
				r.recovered[key] = r.counts[key]
			}
		}
	}
	return true, nil
}

// persistCursor flushes the store (the durability boundary for the
// records the last apply round appended) and then records the stream
// position those records end at. Called from the apply goroutine only.
//
// Saves are throttled to one per CursorInterval (force overrides, for
// the final save on Close): the cursor write is two fsyncs, and paying
// them per drained batch caps apply throughput below what a busy leader
// produces. A cursor that trails the WAL costs nothing but a longer
// resume replay — the skip arithmetic in loadCursor absorbs the gap
// exactly — so the throttle trades a bounded amount of restart work for
// keeping pace with the stream.
func (r *Replicator) persistCursor(force bool) {
	p := r.cfg.Persist
	if p == nil {
		return
	}
	if !force && time.Since(r.lastCursorSave) < r.cfg.CursorInterval {
		return
	}
	p.NoteClock(r.Clock())
	if p.Flush() != nil {
		return // sticky durability error; keep serving from memory
	}
	if data := r.encodeCursor(); data != nil {
		if p.SaveCursor(data) == nil {
			r.lastCursorSave = time.Now()
		}
	}
}
