package store

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"spotlight/internal/market"
)

// The durability layer. A durable store owns a data directory laid out as
//
//	dir/
//	  meta.json                  salt + last noted service clock
//	  snapshot-<SEQ>/            whole-store snapshot (snapshot.go)
//	    manifest.json            shard file list + record counts
//	    <market>.snap            per-shard binary record stream
//	  wal/<market>/seg-<EPOCH>-<IDX>.wal
//
// where <market> is the URL-path-escaped market ID. Every append frames
// its records into the owning shard's pending WAL buffer inside the same
// shard lock round as the in-memory append; Flush moves pending bytes to
// the active segment files (the durability boundary — a record is
// "acknowledged" once Flush returns). Segments rotate at SegmentSize.
//
// Snapshots and the WAL share one monotonic counter: the segment epoch.
// Snapshot N captures, per shard under its lock, everything appended so
// far and simultaneously advances the shard's WAL to epoch N — so a
// record lives either in snapshot N (appended before the shard's cut) or
// in a segment with epoch >= N (appended after), never both and never
// neither. Recovery loads the newest complete snapshot S and replays the
// segments with epoch >= S in (epoch, idx) order per shard; compaction
// deletes segments with epoch < S once snapshot S is durable. Snapshot
// files become visible only via rename, so a crash mid-snapshot leaves
// the previous snapshot plus an uncompacted WAL — exactly the state the
// recovery rule handles.
//
// A damaged segment tail (the torn frames of a crash mid-flush) is
// truncated to its valid prefix on open; per-shard recovery is therefore
// always an exact prefix of that shard's append history.

// PersistOptions tunes a durable store opened with Open.
type PersistOptions struct {
	// SegmentSize rotates a shard's active WAL segment once it reaches
	// this many bytes. Default 1 MiB.
	SegmentSize int64
}

const (
	defaultSegmentSize = 1 << 20
	metaFileName       = "meta.json"
	cursorFileName     = "cursor.json"
	walDirName         = "wal"
	snapshotPrefix     = "snapshot-"

	// walAutoFlushBytes bounds a shard's pending buffer: if the owner
	// never calls Flush (no service tick), the shard flushes itself
	// inline once this much is buffered, so memory stays bounded.
	walAutoFlushBytes = 256 << 10
)

// persistMeta is the meta.json schema: the ETag salt minted when the data
// directory is created, the clean-shutdown marker with its crash-recovery
// counter, and the last service clock the owner noted (used to resume a
// study's clock after restart). Rewritten atomically at Open, on every
// snapshot, and on Close.
type persistMeta struct {
	Version int    `json:"version"`
	Salt    uint64 `json:"salt"`
	// Clean is true only between a Close and the next Open. An Open that
	// finds it false recovered from a crash and bumps Recoveries, which
	// rotates the effective ETag salt: a crash rewinds generations to
	// the last flush, so validators minted against the lost tail must
	// not stay matchable (a clean shutdown loses nothing and keeps the
	// salt stable).
	Clean      bool      `json:"clean"`
	Recoveries uint64    `json:"recoveries"`
	Clock      time.Time `json:"clock"`
}

// Persister is the durability engine of a Store opened with Open. The
// owner (internal/core's Service, or a test) drives its lifecycle:
// Flush once per ingest round, Snapshot periodically, Close on shutdown.
// All methods are safe for concurrent use with appends.
type Persister struct {
	dir        string
	store      *Store
	opts       PersistOptions
	salt       uint64
	recoveries uint64
	// lock holds the data directory's advisory flock for the life of the
	// persister; the kernel releases it if the process dies.
	lock *os.File

	// clock is the last instant noted via NoteClock (UnixNano), persisted
	// with every snapshot so a restarted owner can resume its clock.
	clock atomic.Int64

	// mu guards epoch and the error slot. Lock ordering: the store lock
	// (Store.mu) is always taken before mu (shard creation reads the
	// epoch while holding Store.mu; snapshotCut bumps it likewise).
	mu    sync.Mutex
	epoch uint64
	err   error

	// dirtyMu guards the to-flush list. It nests inside everything and is
	// never held across file I/O.
	dirtyMu sync.Mutex
	dirty   []*shardWAL

	// snapMu serializes Snapshot, Flush, and Close against each other.
	// It also guards lastSnap, the incremental-encoding state of the
	// newest published snapshot (nil before the first one).
	snapMu   sync.Mutex
	closed   bool
	lastSnap *snapDirState

	// Recovery cost, set once in Open before the store is shared and
	// read-only afterwards (scrape-time gauges in Store.EnableMetrics).
	replayDur        time.Duration
	recoveredRecords uint64
}

// shardWAL is one shard's log state. Appends run while holding the
// owning shard's lock and only touch pending (memory); Flush moves
// pending to the active segment file.
//
// Two locks split the hot path from the I/O: mu guards the pending
// buffer and nests inside the shard lock (appends hold both, briefly);
// flushMu serializes flushes and guards the file position, and is held
// across file I/O. A flush swaps the pending buffer out under mu and
// writes it under flushMu alone, so a slow disk never blocks an append —
// or, transitively, the shard's readers. flushMu is always taken before
// mu; neither is ever held while taking a shard lock.
type shardWAL struct {
	p       *Persister
	id      market.SpotID
	dirPath string

	flushMu sync.Mutex
	epoch   uint64 // epoch of the active (or next) segment
	idx     uint64 // index of the active segment within epoch
	size    int64  // bytes already on disk in the active segment
	spare   []byte // recycled swap buffer, owned by flushMu

	mu      sync.Mutex
	pending []byte
	dirty   bool // queued on p.dirty
}

// marketDirName returns the per-shard WAL directory name for id: the
// URL-path-escaped canonical ID ("Linux/UNIX" contains a slash).
func marketDirName(id market.SpotID) string {
	return url.PathEscape(id.String())
}

// segmentName renders a segment file name; parseSegmentName inverts it.
func segmentName(epoch, idx uint64) string {
	return fmt.Sprintf("seg-%08d-%08d.wal", epoch, idx)
}

func parseSegmentName(name string) (epoch, idx uint64, ok bool) {
	var e, i uint64
	n, err := fmt.Sscanf(name, "seg-%d-%d.wal", &e, &i)
	if err != nil || n != 2 {
		return 0, 0, false
	}
	// Only the canonical rendering counts: Sscanf ignores zero-padding
	// and trailing bytes, so without the round-trip check a stray
	// "seg-1-1.wal.bak" would alias the real segment and replay its
	// records twice.
	if name != segmentName(e, i) {
		return 0, 0, false
	}
	return e, i, true
}

// Open opens (creating if needed) a durable store rooted at dir: it
// replays the newest complete snapshot and every WAL segment it does not
// cover into a fresh store, rebuilding all derived state — aggregates,
// rollups, and generation counters — from the records themselves, then
// arms the write-ahead path so subsequent appends are logged.
func Open(dir string, opts PersistOptions) (*Store, error) {
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = defaultSegmentSize
	}
	walRoot := filepath.Join(dir, walDirName)
	if err := os.MkdirAll(walRoot, 0o755); err != nil {
		return nil, fmt.Errorf("store: open data dir: %w", err)
	}
	lock, err := lockDataDir(dir)
	if err != nil {
		return nil, err
	}

	meta, err := loadOrInitMeta(dir)
	if err != nil {
		lock.Close()
		return nil, err
	}

	s := New()
	replayStart := time.Now()
	snap, err := findLatestSnapshot(dir)
	if err != nil {
		lock.Close()
		return nil, err
	}
	positions, maxEpoch, recoveredAt, err := replayParallel(walRoot, snap, s)
	if err != nil {
		lock.Close()
		return nil, err
	}

	p := &Persister{
		dir:              dir,
		store:            s,
		opts:             opts,
		salt:             meta.Salt,
		recoveries:       meta.Recoveries,
		lock:             lock,
		epoch:            max(maxEpoch, snap.seq, 1),
		replayDur:        time.Since(replayStart),
		recoveredRecords: s.gen.Load(),
	}
	if snap.seq > 0 {
		// Prime incremental snapshots: shards unchanged since this
		// snapshot hard-link its files instead of re-encoding.
		p.lastSnap = &snapDirState{seq: snap.seq, dir: snap.dirPath, records: make(map[string]uint64, len(snap.manifest.Shards))}
		for _, msh := range snap.manifest.Shards {
			p.lastSnap.records[msh.File] = msh.Records
		}
	}
	// Resume the clock from whichever is newest: the clock noted at the
	// last snapshot or clean shutdown, or the newest recovered record.
	// A crash loses the meta clock written since the last snapshot, but
	// the WAL still holds the acknowledged records of those ticks — and
	// resuming behind them would make the owner re-live (and re-record)
	// a window the store already covers.
	clock := meta.Clock
	if recoveredAt.After(clock) {
		clock = recoveredAt
	}
	if !clock.IsZero() {
		p.clock.Store(clock.UnixNano())
	}
	s.attachPersister(p, positions)
	return s, nil
}

// lockDataDir takes an exclusive advisory flock on dir/LOCK so two
// processes cannot write the same WAL: the second Open fails cleanly
// instead of interleaving frames and racing compaction. The lock dies
// with the process, so a crash never leaves a stale lock behind.
func lockDataDir(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open lock file: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: data dir %s is in use by another process: %w", dir, err)
	}
	return f, nil
}

// loadOrInitMeta reads meta.json, minting it (with a fresh random salt)
// on first open of the directory. An existing meta without the clean
// marker means the previous owner crashed: the recovery counter bumps,
// rotating the effective ETag salt. Either way the marker is rewritten
// false — this process is now the running owner.
func loadOrInitMeta(dir string) (persistMeta, error) {
	path := filepath.Join(dir, metaFileName)
	data, err := os.ReadFile(path)
	var m persistMeta
	switch {
	case err == nil:
		if jerr := json.Unmarshal(data, &m); jerr != nil {
			return persistMeta{}, fmt.Errorf("store: decode %s: %w", metaFileName, jerr)
		}
		if !m.Clean {
			m.Recoveries++
		}
	case errors.Is(err, os.ErrNotExist):
		var b [8]byte
		if _, rerr := rand.Read(b[:]); rerr != nil {
			return persistMeta{}, fmt.Errorf("store: mint salt: %w", rerr)
		}
		m = persistMeta{Version: 1, Salt: binary.LittleEndian.Uint64(b[:])}
	default:
		return persistMeta{}, fmt.Errorf("store: read %s: %w", metaFileName, err)
	}
	m.Clean = false
	if werr := writeFileAtomic(path, mustJSON(m)); werr != nil {
		return persistMeta{}, werr
	}
	return m, nil
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // persistMeta marshaling cannot fail
	}
	return append(data, '\n')
}

// writeFileAtomic writes data via a synced temp file, rename, and a
// directory fsync, so the target is always either the old or the new
// complete contents — even across a power failure (the directory sync
// persists the rename itself).
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := writeSyncedFile(tmp, data); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: publish %s: %w", path, err)
	}
	return syncPath(filepath.Dir(path))
}

// segPos records where a shard's recovered log ended, so fresh appends
// start a new segment after it.
type segPos struct {
	epoch uint64
	idx   uint64
}

// Persister returns the store's durability engine, or nil for an
// in-memory store built with New.
func (s *Store) Persister() *Persister { return s.persist }

// attachPersister arms the write-ahead path: existing shards (rebuilt by
// replay) get their WAL handles, and shardFor wires new shards at
// creation. positions tells each recovered shard where its on-disk log
// ended so fresh appends open the following segment.
func (s *Store) attachPersister(p *Persister, positions map[market.SpotID]segPos) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.persist = p
	for id, sh := range s.shards {
		w := p.newShardWAL(id)
		if pos, ok := positions[id]; ok && pos.epoch == w.epoch {
			w.idx = pos.idx + 1
		}
		sh.mu.Lock()
		sh.wal = w
		sh.mu.Unlock()
	}
}

// newShardWAL builds the log handle of one shard at the current epoch.
// Callers hold Store.mu, which orders handle creation against epoch bumps
// (snapshotCut also runs under Store.mu).
func (p *Persister) newShardWAL(id market.SpotID) *shardWAL {
	p.mu.Lock()
	epoch := p.epoch
	p.mu.Unlock()
	return &shardWAL{
		p:       p,
		id:      id,
		dirPath: filepath.Join(p.dir, walDirName, marketDirName(id)),
		epoch:   epoch,
		idx:     1,
	}
}

// Salt returns the directory's effective ETag salt: the stable value
// minted when the data directory was created, folded with the
// crash-recovery counter. Serving layers salt their ETags with it
// instead of a per-process value, so validators survive clean restarts —
// where generations survive too — but are all retired after a crash,
// whose rewound generations could otherwise re-reach a pre-crash count
// with different records and falsely answer 304.
func (p *Persister) Salt() uint64 {
	return p.salt ^ (p.recoveries * 0x9e3779b97f4a7c15)
}

// Clock returns the last service clock noted before the previous
// shutdown or snapshot (zero when never noted), letting the owner resume
// a study's clock after restart.
func (p *Persister) Clock() time.Time {
	ns := p.clock.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns).UTC()
}

// NoteClock records the owner's current clock; it is persisted with the
// next snapshot and on Close.
func (p *Persister) NoteClock(t time.Time) {
	p.clock.Store(t.UnixNano())
}

// SaveCursor atomically persists an opaque replication cursor blob next
// to the WAL (dir/cursor.json). The blob's schema belongs to the caller
// (internal/replica stores its stream position there); the store only
// guarantees the same durability as a snapshot — the file is always
// either the old or the new complete contents. Call it after Flush: a
// cursor that claims records the WAL has not acknowledged yet would, on
// recovery, skip the stream events that were supposed to re-deliver
// them. Fail-stop like every other write: once the durability layer has
// a sticky error the cursor stops advancing too.
func (p *Persister) SaveCursor(data []byte) error {
	if err := p.Err(); err != nil {
		return err
	}
	if err := p.fail(writeFileAtomic(filepath.Join(p.dir, cursorFileName), data)); err != nil {
		return err
	}
	p.store.metrics.cursorSaves.Inc()
	return nil
}

// LoadCursor returns the last blob SaveCursor persisted; ok is false
// when no cursor has ever been saved in this data directory.
func (p *Persister) LoadCursor() (data []byte, ok bool, err error) {
	data, err = os.ReadFile(filepath.Join(p.dir, cursorFileName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: read %s: %w", cursorFileName, err)
	}
	return data, true, nil
}

// Abandon drops the persister without flushing, snapshotting, or writing
// the clean marker, releasing the directory flock exactly the way a
// process death would. It exists for failure-domain tests that need to
// simulate kill -9 and then re-Open the same directory in-process; real
// owners always Close. After Abandon every write is a no-op and the next
// Open recovers: WAL replay truncates any torn tail and the recovery
// counter bumps (rotating Salt) because the clean marker was never
// written.
func (p *Persister) Abandon() {
	p.snapMu.Lock()
	defer p.snapMu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	p.fail(errors.New("store: persister abandoned (simulated crash)"))
	p.lock.Close()
}

// fail records the first durability error; later writes become no-ops
// and the error surfaces from Flush, Snapshot, and Close. The in-memory
// store keeps serving — durability is fail-stop, queries are not.
func (p *Persister) fail(err error) error {
	if err == nil {
		return nil
	}
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
	return err
}

// Err returns the sticky durability error, nil while the log is healthy.
func (p *Persister) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// markDirty queues w for the next Flush. Called with w.mu held; dirtyMu
// nests innermost and is never held across I/O.
func (p *Persister) markDirty(w *shardWAL) {
	p.dirtyMu.Lock()
	p.dirty = append(p.dirty, w)
	p.dirtyMu.Unlock()
}

// takeDirty claims the current to-flush list.
func (p *Persister) takeDirty() []*shardWAL {
	p.dirtyMu.Lock()
	dirty := p.dirty
	p.dirty = nil
	p.dirtyMu.Unlock()
	return dirty
}

// Flush moves every shard's pending WAL bytes to its active segment
// file. Records are durable against process crashes once Flush returns;
// this is the "acknowledged" boundary the recovery guarantees speak of.
func (p *Persister) Flush() error {
	p.snapMu.Lock()
	defer p.snapMu.Unlock()
	return p.flushLocked()
}

func (p *Persister) flushLocked() error {
	if err := p.Err(); err != nil {
		return err
	}
	var first error
	for _, w := range p.takeDirty() {
		if err := w.flushPending(); err != nil && first == nil {
			first = err
		}
	}
	return p.fail(first)
}

// append frames pre-encoded bytes onto the shard's pending buffer. The
// caller holds the owning shard's lock, making the buffered bytes agree
// exactly with the in-memory append order. It reports whether the buffer
// has outgrown walAutoFlushBytes; the caller then runs flushOversized
// after releasing the shard lock, so file I/O never stalls the shard's
// readers.
func (w *shardWAL) append(encoded []byte) (oversized bool) {
	if len(encoded) == 0 {
		return false
	}
	w.mu.Lock()
	w.pending = append(w.pending, encoded...)
	if !w.dirty {
		w.dirty = true
		w.p.markDirty(w)
	}
	oversized = len(w.pending) >= walAutoFlushBytes
	w.mu.Unlock()
	return oversized
}

// flushOversized drains an over-threshold pending buffer outside the
// shard lock, bounding memory when the owner never calls Flush.
func (w *shardWAL) flushOversized() {
	if err := w.flushPending(); err != nil {
		w.p.fail(err)
	}
}

// cutTo flushes the shard's pending bytes into its current epoch and
// advances the log to newEpoch: the snapshot taken in the same shard-lock
// round covers everything before the cut, and everything after lands in
// segments the snapshot does not cover. Called with the shard lock held,
// which excludes concurrent appends; taking flushMu waits out any
// in-flight flush of pre-cut bytes.
func (w *shardWAL) cutTo(newEpoch uint64) error {
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	if err := w.writeOutLocked(); err != nil {
		return err
	}
	if newEpoch > w.epoch {
		w.epoch = newEpoch
		w.idx = 1
		w.size = 0
	}
	return nil
}

// flushPending moves the pending buffer to the active segment file. The
// buffer is swapped out under mu and written under flushMu alone, so
// appends (and the shard lock they hold) never wait on disk. The sticky-
// error check keeps failure fail-stop: a failed flush may have written
// part of a buffer to disk, so retrying it would append those frames a
// second time and the next recovery would replay duplicates. Once the
// persister is failed, nothing writes again.
func (w *shardWAL) flushPending() error {
	if err := w.p.Err(); err != nil {
		return err
	}
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	return w.writeOutLocked()
}

// writeOutLocked swaps out and writes the pending buffer. Requires
// flushMu.
func (w *shardWAL) writeOutLocked() error {
	w.mu.Lock()
	buf := w.pending
	w.pending = w.spare[:0]
	// Clearing dirty at swap time (not after the write) lets an append
	// racing the disk I/O re-queue the shard for the next Flush.
	w.dirty = false
	w.mu.Unlock()
	m := w.p.store.metrics
	var start time.Time
	if m.walFlushSeconds != nil && len(buf) > 0 {
		start = time.Now()
	}
	err := w.writeSegmentLocked(buf)
	if !start.IsZero() && err == nil {
		m.observeFlush(len(buf), time.Since(start))
	}
	w.spare = buf[:0]
	return err
}

// writeSegmentLocked appends buf to the active segment, opening (and
// rotating) segment files as needed. Requires flushMu.
func (w *shardWAL) writeSegmentLocked(buf []byte) error {
	if len(buf) == 0 {
		return nil
	}
	if w.size == 0 {
		// Starting a new segment; compaction may have removed the whole
		// shard directory when the last snapshot covered every segment.
		if err := os.MkdirAll(w.dirPath, 0o755); err != nil {
			return fmt.Errorf("store: create WAL dir: %w", err)
		}
	}
	path := filepath.Join(w.dirPath, segmentName(w.epoch, w.idx))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if errors.Is(err, os.ErrNotExist) {
		// A concurrent compaction can remove the shard directory between
		// our MkdirAll and the open (it prunes directories left empty by
		// the snapshot cut). Recreate and retry once rather than letting
		// a transient ENOENT become the sticky durability error.
		if merr := os.MkdirAll(w.dirPath, 0o755); merr == nil {
			f, err = os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		}
	}
	if err != nil {
		return fmt.Errorf("store: open segment: %w", err)
	}
	if w.size == 0 {
		if _, err := f.WriteString(walMagic); err != nil {
			f.Close()
			return fmt.Errorf("store: write segment header: %w", err)
		}
		w.size = int64(len(walMagic))
	}
	// No fsync here: the WAL's contract is process-crash durability
	// (bytes handed to the kernel survive the process dying), and an
	// fsync per flush would pay machine-crash prices without delivering
	// machine-crash guarantees anyway — that would also need directory
	// fsyncs on every segment create. Machine-crash checkpoints are the
	// snapshots, which writeFileAtomic fsyncs file and directory both.
	n, werr := f.Write(buf)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	w.size += int64(n)
	if werr != nil {
		return fmt.Errorf("store: write segment: %w", werr)
	}
	if w.size >= w.p.opts.SegmentSize {
		w.idx++
		w.size = 0
	}
	return nil
}

// Snapshot writes a whole-store snapshot and compacts the WAL segments
// it covers. The capture is a per-shard consistent cut: each shard's
// records, generation, and WAL epoch advance are taken under one shard
// lock hold, so no shard's records can straddle the snapshot boundary.
func (p *Persister) Snapshot() error {
	p.snapMu.Lock()
	defer p.snapMu.Unlock()
	if p.closed {
		return errors.New("store: snapshot of closed persister")
	}
	if err := p.Err(); err != nil {
		return err
	}
	_, err := p.snapshotLocked()
	return err
}

func (p *Persister) snapshotLocked() (uint64, error) {
	start := time.Now()
	seq, captures := p.store.snapshotCut(p)
	var cutErr error
	for _, c := range captures {
		if c.walErr != nil && cutErr == nil {
			cutErr = c.walErr
		}
	}
	if cutErr != nil {
		// Some shard could not flush its pre-cut records; writing this
		// snapshot could then orphan them, so abort. The previous
		// snapshot + WAL remain the recovery source.
		return 0, p.fail(cutErr)
	}

	state, err := writeSnapshotV2(p.dir, seq, captures, p.lastSnap)
	if err != nil {
		return 0, p.fail(err)
	}
	p.lastSnap = state
	if err := p.writeMeta(p.closed); err != nil {
		return 0, p.fail(err)
	}
	p.compact(seq)
	m := p.store.metrics
	m.snapshots.Inc()
	m.snapshotLinked.Add(uint64(state.linked))
	m.snapshotEncoded.Add(uint64(state.encoded))
	m.snapshotSeconds.Observe(time.Since(start))
	return seq, nil
}

// writeMeta rewrites meta.json; clean is true only for the final write
// of a Close, marking the shutdown as loss-free.
func (p *Persister) writeMeta(clean bool) error {
	m := persistMeta{Version: 1, Salt: p.salt, Clean: clean, Recoveries: p.recoveries}
	if ns := p.clock.Load(); ns != 0 {
		m.Clock = time.Unix(0, ns).UTC()
	}
	return writeFileAtomic(filepath.Join(p.dir, metaFileName), mustJSON(m))
}

// compact removes snapshot directories older than seq, in-progress .tmp
// directories a crashed snapshot left, and WAL segments with epochs seq
// covers. Best-effort: leftovers are ignored by recovery and retried by
// the next compaction.
func (p *Persister) compact(seq uint64) {
	if ents, err := os.ReadDir(p.dir); err == nil {
		for _, ent := range ents {
			name := ent.Name()
			if !ent.IsDir() {
				continue
			}
			// snapMu serializes snapshots, so any .tmp directory is the
			// debris of a crashed snapshot attempt.
			tmp := strings.HasPrefix(name, snapshotPrefix) && strings.HasSuffix(name, snapTmpSuffix)
			if s, ok := snapshotDirSeq(name); (ok && s < seq) || tmp {
				os.RemoveAll(filepath.Join(p.dir, name))
			}
		}
	}
	walRoot := filepath.Join(p.dir, walDirName)
	dirs, err := os.ReadDir(walRoot)
	if err != nil {
		return
	}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		shardDir := filepath.Join(walRoot, d.Name())
		segs, err := os.ReadDir(shardDir)
		if err != nil {
			continue
		}
		remaining := 0
		for _, seg := range segs {
			epoch, idx, ok := parseSegmentName(seg.Name())
			if !ok {
				remaining++
				continue
			}
			if epoch < seq {
				if os.Remove(filepath.Join(shardDir, segmentName(epoch, idx))) != nil {
					remaining++
				}
			} else {
				remaining++
			}
		}
		if remaining == 0 {
			os.Remove(shardDir) // now empty; recreated on next append
		}
	}
}

// Close flushes outstanding WAL bytes, takes a final snapshot (so the
// next Open replays no WAL), persists the clock, and stops the
// durability layer. It returns the first durability error of the whole
// session, so owners that ignore per-tick Flush errors still surface
// them at shutdown.
func (p *Persister) Close() error {
	p.snapMu.Lock()
	defer p.snapMu.Unlock()
	if p.closed {
		return p.Err()
	}
	p.closed = true
	defer p.lock.Close() // releases the directory flock
	if err := p.flushLocked(); err != nil {
		return err
	}
	if err := p.Err(); err != nil {
		return err
	}
	_, err := p.snapshotLocked()
	return err
}

// snapshotCut atomically advances the segment epoch and captures every
// shard. Running under the store lock closes the race with shard
// creation: a shard either exists here (captured, WAL advanced) or is
// created afterwards and mints its WAL handle at the new epoch — either
// way no record can hide in a segment the snapshot claims to cover.
func (s *Store) snapshotCut(p *Persister) (uint64, []shardCapture) {
	s.mu.Lock()
	p.mu.Lock()
	p.epoch++
	seq := p.epoch
	p.mu.Unlock()
	shards := make([]*shard, 0, len(s.shards))
	for _, sh := range s.shards {
		shards = append(shards, sh)
	}
	s.mu.Unlock()

	sort.Slice(shards, func(i, j int) bool { return shards[i].key < shards[j].key })
	captures := make([]shardCapture, len(shards))
	for i, sh := range shards {
		captures[i] = sh.capture(seq)
	}
	return seq, captures
}
