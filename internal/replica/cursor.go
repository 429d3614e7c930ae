package replica

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"spotlight/internal/store"
)

// The durable stream cursor: where in the leader's history the flushed store
// stands. A recovered store may be ahead of it (records flushed after the
// last save): resuming re-delivers frames the ordinal rule skips as held. It
// may be behind, when a machine crash lost log bytes the cursor counted: its
// generation is then below the cursor's, and the token is dropped for a
// snapshot. A snapshot drops the token before it applies, so a follower that
// dies halfway resumes with another, never by ordinal over family groups.
const cursorVersion = 1

// cursorFile is the JSON schema persisted via store.Persister.SaveCursor.
// Earlier cursors also carried per-market record counts; decoding ignores
// them.
type cursorFile struct {
	Version int `json:"version"`
	// Salt is the leader's salt in hex: the history the store holds.
	Salt string `json:"salt"`
	// LastEventID resumes the stream; empty while a snapshot is due.
	LastEventID string `json:"lastEventId"`
	// LeaderGen and Clock are the newest leader generation and clock seen.
	LeaderGen uint64    `json:"leaderGen"`
	Clock     time.Time `json:"clock"`
	// Generation is the local store's generation at the save.
	Generation uint64 `json:"generation"`
}

// loadCursor adopts the cursor of a previous life of this data directory:
// salt and clock at once, so the follower serves leader-compatible ETags
// before the stream reattaches; the token only if the recovered store holds
// everything the cursor counted.
func (r *Replicator) loadCursor(p *store.Persister) error {
	data, ok, err := p.LoadCursor()
	if err != nil || !ok {
		return err
	}
	cur, salt, err := decodeCursor(data)
	if err != nil {
		return err
	}
	r.salt.Store(salt)
	r.saltKnown.Store(true)
	if !cur.Clock.IsZero() {
		r.observe(store.Position{Gen: cur.LeaderGen, Clock: cur.Clock})
		r.appliedNanos.Store(cur.Clock.UnixNano())
	}
	if r.cfg.DB.GlobalGeneration() >= cur.Generation {
		r.token = cur.LastEventID
	}
	return nil
}

// decodeCursor parses a saved cursor and its hex salt. It checks only the
// bytes; loadCursor decides what the cursor may resume.
func decodeCursor(data []byte) (cursorFile, uint64, error) {
	var cur cursorFile
	if err := json.Unmarshal(data, &cur); err != nil {
		return cursorFile{}, 0, fmt.Errorf("replica: decode cursor: %w", err)
	}
	if cur.Version != cursorVersion {
		return cursorFile{}, 0, fmt.Errorf("replica: cursor version %d is not %d", cur.Version, cursorVersion)
	}
	salt, err := strconv.ParseUint(cur.Salt, 16, 64)
	if err != nil {
		return cursorFile{}, 0, fmt.Errorf("replica: cursor salt %q: %w", cur.Salt, err)
	}
	return cur, salt, nil
}

// persistCursor flushes the store, then saves the position the flushed
// records end at (apply goroutine only). Saves are throttled to one per
// CursorInterval unless forced: a cursor trailing the log costs only
// frames skipped as held on restart.
func (r *Replicator) persistCursor(force bool) {
	p := r.cfg.Persist
	if p == nil || !force && time.Since(r.lastCursorSave) < r.cfg.CursorInterval {
		return
	}
	p.NoteClock(r.Clock())
	if p.Flush() != nil {
		return // sticky durability error; keep serving from memory
	}
	r.mu.Lock()
	cur := cursorFile{Version: cursorVersion, Salt: strconv.FormatUint(r.salt.Load(), 16),
		LastEventID: r.token, LeaderGen: uint64(r.leaderGen.Load()), Clock: r.Clock(),
		Generation: r.cfg.DB.GlobalGeneration()}
	r.mu.Unlock()
	if data, err := json.Marshal(cur); err == nil && p.SaveCursor(append(data, '\n')) == nil {
		r.lastCursorSave = time.Now()
	}
}
