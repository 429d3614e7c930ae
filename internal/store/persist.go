package store

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The durability layer. A durable store owns a data directory laid out as
//
//	dir/
//	  meta.json                  salt + last noted service clock
//	  snapshot-<SEQ>.snap        whole-store snapshot (snapshot.go)
//	  wal/log-<EPOCH>-<IDX>.wal  the store log, one series for every market
//
// Every append round copies its pre-encoded frames into the log's one
// pending buffer inside the same shard lock round as the in-memory append;
// Flush hands the buffer to the active log file in one write (the
// durability boundary — a record is "acknowledged" once Flush returns).
// The file rotates at SegmentSize.
//
// Snapshots and the log share one monotonic counter: the epoch. Snapshot N
// first rotates the log to epoch N and then captures every shard under its
// lock. A record framed before the rotation sits in a file of an older
// epoch and in its shard's capture; one framed after its shard's capture
// sits in a file of epoch >= N and not in the snapshot; one framed in
// between sits in both, and recovery tells by ordinal: the snapshot's index
// pins each shard's record count at its capture and every log run says which
// count it continues from (wal.go), so a frame the snapshot already covers
// is skipped. Recovery loads the newest complete snapshot S and replays
// the log files with epoch >= S in (epoch, idx) order; compaction deletes
// the files with epoch < S once snapshot S is durable. A snapshot file
// becomes visible only via rename, so a crash mid-snapshot leaves the
// previous snapshot plus an uncompacted log — exactly the state the
// recovery rule handles.
//
// A damaged log tail (the torn frames of a crash mid-flush) is truncated
// to its valid prefix on open, and the log is one series in append order,
// so recovery is always an exact prefix of the whole store's append
// history: a record that survived implies every record framed before it,
// in any market.

// PersistOptions tunes a durable store opened with Open.
type PersistOptions struct {
	// SegmentSize rotates the active log file once it reaches this many
	// bytes. Default 1 MiB.
	SegmentSize int64
}

const (
	defaultSegmentSize = 1 << 20
	metaFileName       = "meta.json"
	cursorFileName     = "cursor.json"
	walDirName         = "wal"
	snapshotPrefix     = "snapshot-"
	tmpSuffix          = ".tmp" // publishFile's not-yet-renamed files

	// walAutoFlushBytes bounds the log's pending buffer: if the owner
	// never calls Flush (no service tick), the append round that fills it
	// flushes inline, so memory stays bounded.
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
	salt       uint64
	recoveries uint64
	// lock holds the data directory's advisory flock for the life of the
	// persister; the kernel releases it if the process dies.
	lock *os.File

	// clock is the last instant noted via NoteClock (UnixNano), persisted
	// with every snapshot so a restarted owner can resume its clock.
	clock atomic.Int64

	// mu guards the sticky error slot and nests inside everything.
	mu  sync.Mutex
	err error

	log storeLog

	// snapMu serializes Snapshot, Flush, SaveCursor and Close against each
	// other. It also guards closed.
	snapMu sync.Mutex
	closed bool

	// Recovery cost, set once in Open before the store is shared and
	// read-only afterwards (scrape-time gauges in Store.EnableMetrics).
	replayDur        time.Duration
	recoveredRecords uint64
}

// errPersisterClosed is what every write returns once Close or Abandon has
// released the data directory: another process may own it by then.
var errPersisterClosed = errors.New("store: persister is closed")

// storeLog is the write half of the store log: one pending buffer every
// shard appends to, one open file, one rotation.
//
// Two locks split the hot path from the I/O: mu guards the pending buffer
// and nests inside every shard lock (appends hold both, briefly; the order
// is always shard, then log); flushMu serializes flushes and rotations,
// guards the file state, and is held across file I/O. A flush swaps the
// pending buffer out under mu and writes it under flushMu alone, so a slow
// disk never blocks an append — or, transitively, a shard's readers.
// flushMu is always taken before mu and never while holding a shard lock.
type storeLog struct {
	dir         string // the wal/ directory
	segmentSize int64
	metrics     *storeMetrics

	flushMu sync.Mutex
	f       *os.File // the active file; nil until the first write into (epoch, idx)
	epoch   uint64   // epoch of the active (or next) file
	idx     uint64   // index of the active (or next) file within epoch
	size    int64    // bytes already in the active file
	spare   []byte   // recycled swap buffer

	mu      sync.Mutex
	pending []byte
	last    *shard // shard of the newest pending round; nil at the start of a buffer
	stopped bool   // closed or failed: frames are dropped, not buffered
}

// logFile names one file of the log series; files replay in (epoch, idx)
// order.
type logFile struct{ epoch, idx uint64 }

func (lf logFile) name() string {
	return fmt.Sprintf("log-%08d-%08d.wal", lf.epoch, lf.idx)
}

func parseLogFileName(name string) (logFile, bool) {
	var lf logFile
	n, err := fmt.Sscanf(name, "log-%d-%d.wal", &lf.epoch, &lf.idx)
	// Only the canonical rendering counts: Sscanf ignores zero-padding
	// and trailing bytes, so without the round-trip check a stray
	// "log-1-1.wal.bak" would alias the real file and replay its records
	// twice.
	if err != nil || n != 2 || name != lf.name() {
		return logFile{}, false
	}
	return lf, true
}

// listLog reads the wal/ directory: the log files recovery must replay
// (epoch >= seq, in series order) and the file the series continues with,
// past every name already taken. A per-market segment of the layout before
// the single log that the snapshot does not cover is refused by full path:
// this version cannot read it, and opening past it would present the loss
// of its records as a successful Open. A cleanly closed directory has
// none.
func listLog(walRoot string, seq uint64) (files []logFile, next logFile, err error) {
	ents, err := os.ReadDir(walRoot)
	if err != nil {
		return nil, logFile{}, fmt.Errorf("store: list %s: %w", walRoot, err)
	}
	next = logFile{epoch: max(seq, 1), idx: 1}
	for _, ent := range ents {
		if ent.IsDir() {
			segs, err := os.ReadDir(filepath.Join(walRoot, ent.Name()))
			if err != nil {
				return nil, logFile{}, fmt.Errorf("store: list %s: %w", filepath.Join(walRoot, ent.Name()), err)
			}
			for _, seg := range segs {
				var epoch, idx uint64
				if n, _ := fmt.Sscanf(seg.Name(), "seg-%d-%d.wal", &epoch, &idx); n == 2 && epoch >= seq {
					return nil, logFile{}, fmt.Errorf("store: %s is a per-market WAL segment the newest snapshot does not cover, which this version cannot read (serve this directory with the release that wrote it, or remove the segment's directory to open without the records only it holds)", filepath.Join(walRoot, ent.Name(), seg.Name()))
				}
			}
			continue
		}
		lf, ok := parseLogFileName(ent.Name())
		if !ok {
			continue
		}
		if lf.epoch > next.epoch || lf.epoch == next.epoch && lf.idx >= next.idx {
			next = logFile{epoch: lf.epoch, idx: lf.idx + 1}
		}
		if lf.epoch >= seq {
			files = append(files, lf)
		}
	}
	sort.Slice(files, func(i, j int) bool {
		if files[i].epoch != files[j].epoch {
			return files[i].epoch < files[j].epoch
		}
		return files[i].idx < files[j].idx
	})
	return files, next, nil
}

// Open opens (creating if needed) a durable store rooted at dir: it
// replays the newest complete snapshot and every log file it does not
// cover into a fresh store, rebuilding all derived state — open outages,
// rollups, and generation counters — from the records themselves, then
// arms the write-ahead path so subsequent appends are logged.
func Open(dir string, opts PersistOptions) (_ *Store, err error) {
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
	defer func() {
		if err != nil {
			lock.Close()
		}
	}()

	s := New()
	p := &Persister{
		dir:   dir,
		store: s,
		lock:  lock,
		log:   storeLog{dir: walRoot, segmentSize: opts.SegmentSize, metrics: s.metrics},
	}
	// Attached before recovery so every shard it adopts is wired to the
	// log; nothing appends through it until Open returns.
	s.persist = p

	replayStart := time.Now()
	snap, err := findLatestSnapshot(dir)
	if err != nil {
		return nil, err
	}
	files, next, err := listLog(walRoot, snap.seq)
	if err != nil {
		return nil, err
	}
	recoveredAt, err := replayParallel(walRoot, files, snap, s)
	if err != nil {
		return nil, err
	}
	// Fresh appends open a new file past everything on disk: a recovered
	// file is never appended to.
	p.log.epoch, p.log.idx = next.epoch, next.idx
	p.replayDur = time.Since(replayStart)
	p.recoveredRecords = s.gen.Load()
	// Only now does this process mark the directory as its own: an Open
	// that refuses a snapshot or a log layout has written nothing.
	meta, err := loadOrInitMeta(dir)
	if err != nil {
		return nil, err
	}
	p.salt, p.recoveries = meta.Salt, meta.Recoveries
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

// publishFile is how every file outside wal/ reaches the data directory:
// write streams the contents into path.tmp, which is fsynced, renamed to
// path, and made durable by an fsync of the directory, so path is always
// either the old or the new complete contents — even across a power
// failure — and a crash leaves at most a .tmp nobody reads.
func publishFile(path string, write func(io.Writer) error) error {
	tmp := path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: create %s: %w", tmp, err)
	}
	werr := write(f)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp, path)
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: publish %s: %w", path, werr)
	}
	dir := filepath.Dir(path)
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: open for sync %s: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: sync %s: %w", dir, err)
	}
	return nil
}

// writeFileAtomic publishes data as the complete contents of path.
func writeFileAtomic(path string, data []byte) error {
	return publishFile(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// Persister returns the store's durability engine, or nil for an
// in-memory store built with New.
func (s *Store) Persister() *Persister { return s.persist }

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
// either the old or the new complete contents. Call it after Flush, so a
// cursor never claims records the WAL has not acknowledged. Fail-stop like
// every other write: after a sticky error the cursor stops advancing too.
func (p *Persister) SaveCursor(data []byte) error {
	p.snapMu.Lock()
	defer p.snapMu.Unlock()
	if err := p.writable(); err != nil {
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

// fail records the first durability error and stops the log: later writes
// become no-ops, frames are dropped instead of buffered, and the error
// surfaces from Flush, Snapshot, and Close. The in-memory store keeps
// serving — durability is fail-stop, queries are not. Never called with
// the log's flushMu held.
func (p *Persister) fail(err error) error {
	if err == nil {
		return nil
	}
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
	p.log.stop()
	return err
}

// Err returns the sticky durability error, nil while the log is healthy.
func (p *Persister) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// writable reports why the persister must not write: it was closed (the
// directory may belong to another process by now) or it failed earlier.
// Requires snapMu.
func (p *Persister) writable() error {
	if p.closed {
		return errPersisterClosed
	}
	return p.Err()
}

// Flush writes the log's pending bytes to its active file. Records are
// durable against process crashes once Flush returns; this is the
// "acknowledged" boundary the recovery guarantees speak of.
func (p *Persister) Flush() error {
	p.snapMu.Lock()
	defer p.snapMu.Unlock()
	if err := p.writable(); err != nil {
		return err
	}
	return p.fail(p.log.flush())
}

// append copies one round's pre-encoded frames onto the pending buffer,
// under a run header when the previous round was another shard's (before
// is sh's record count ahead of the round). The caller holds sh's lock,
// making the buffered bytes agree exactly with the in-memory append order.
// It reports whether the buffer has outgrown walAutoFlushBytes; the caller
// then flushes after releasing the shard lock, so file I/O never stalls
// the shard's readers.
func (l *storeLog) append(sh *shard, before uint64, frames []byte) (oversized bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.stopped {
		return false
	}
	if l.last != sh {
		l.pending = appendRunHeader(l.pending, sh.id(), before)
		l.last = sh
	}
	l.pending = append(l.pending, frames...)
	return len(l.pending) >= walAutoFlushBytes
}

// flush moves the pending buffer to the active log file. The buffer is
// swapped out under mu and written under flushMu alone, so appends (and
// the shard locks they hold) never wait on disk.
func (l *storeLog) flush() error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	return l.flushLocked()
}

// flushLocked is flush under a flushMu the caller holds. A failed write
// stops the log before flushMu is released: it may have put part of the
// buffer on disk, and a frame written after that would be acknowledged
// yet sit past the torn one the next recovery stops at.
func (l *storeLog) flushLocked() error {
	l.mu.Lock()
	buf := l.pending
	// The next buffer may open a file, so it starts with a run header.
	l.pending, l.last = l.spare[:0], nil
	l.mu.Unlock()
	l.spare = buf[:0]
	if len(buf) == 0 {
		return nil
	}
	var start time.Time
	if l.metrics.walFlushSeconds != nil {
		start = time.Now()
	}
	if err := l.write(buf); err != nil {
		l.stopLocked()
		return err
	}
	if !start.IsZero() {
		l.metrics.observeFlush(len(buf), time.Since(start))
	}
	return nil
}

// write appends buf to the active file, creating it first when this is the
// first write into (epoch, idx) and rotating after when it has filled.
// Requires flushMu.
func (l *storeLog) write(buf []byte) error {
	if l.f == nil {
		// O_EXCL: listLog numbered this file past every name on disk, so
		// an existing one is a second writer or a bug, and appending a
		// second magic into it would cost its frames at the next recovery.
		f, err := os.OpenFile(filepath.Join(l.dir, logFile{l.epoch, l.idx}.name()), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			return fmt.Errorf("store: create log file: %w", err)
		}
		l.f = f
		if _, err := f.WriteString(walMagic); err != nil {
			return fmt.Errorf("store: write log header: %w", err)
		}
		l.size = int64(len(walMagic))
	}
	// No fsync here: the WAL's contract is process-crash durability
	// (bytes handed to the kernel survive the process dying), and an
	// fsync per flush would pay machine-crash prices without delivering
	// machine-crash guarantees anyway — that would also need directory
	// fsyncs on every file create. Machine-crash checkpoints are the
	// snapshots, which publishFile fsyncs file and directory both.
	n, err := l.f.Write(buf)
	l.size += int64(n)
	if err != nil {
		return fmt.Errorf("store: write log: %w", err)
	}
	if l.size >= l.segmentSize {
		return l.advance(l.epoch, l.idx+1)
	}
	return nil
}

// advance closes the active file and points the series at (epoch, idx).
// Requires flushMu.
func (l *storeLog) advance(epoch, idx uint64) error {
	var err error
	if l.f != nil {
		if err = l.f.Close(); err != nil {
			err = fmt.Errorf("store: close log file: %w", err)
		}
		l.f = nil
	}
	l.epoch, l.idx, l.size = epoch, idx, 0
	return err
}

// rotate flushes the pending buffer into the current epoch and starts the
// next one, which it returns: the cut a snapshot is taken behind.
func (l *storeLog) rotate() (uint64, error) {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	if err := l.flushLocked(); err != nil {
		return 0, err
	}
	err := l.advance(l.epoch+1, 1)
	return l.epoch, err
}

// stop ends the log: buffered and future frames are dropped (the store
// stays readable; nothing is acknowledged any more) and the file closes.
func (l *storeLog) stop() {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.stopLocked()
}

func (l *storeLog) stopLocked() {
	l.mu.Lock()
	l.stopped, l.pending, l.last = true, nil, nil
	l.mu.Unlock()
	if l.f != nil {
		l.f.Close() // the error that stopped the log, if any, is already reported
		l.f = nil
	}
}

// Snapshot writes a whole-store snapshot and compacts the log files it
// covers. The capture is a per-shard consistent cut: each shard's records
// and generation are taken under one shard lock hold, so a shard's record
// streams never disagree about where the snapshot ends.
func (p *Persister) Snapshot() error {
	p.snapMu.Lock()
	defer p.snapMu.Unlock()
	if err := p.writable(); err != nil {
		return err
	}
	return p.snapshotLocked()
}

func (p *Persister) snapshotLocked() error {
	start := time.Now()
	// Rotate before listing the shards: a shard created after the list is
	// taken is not in the snapshot, and every frame of it is then framed
	// after the rotation too, into a file the snapshot does not cover. If
	// the pre-cut bytes cannot be flushed the snapshot could orphan them,
	// so abort; the previous snapshot + log remain the recovery source.
	seq, err := p.log.rotate()
	if err != nil {
		return p.fail(err)
	}
	captures := p.store.captureAll()
	// Whatever appends raced the captures is in some of them; putting it
	// on disk before the snapshot is visible keeps what a crash right
	// after recovers a prefix of the whole append history, not of each
	// shard's.
	if err := p.log.flush(); err != nil {
		return p.fail(err)
	}
	var sections int
	err = publishFile(filepath.Join(p.dir, snapshotName(seq)), func(w io.Writer) (err error) {
		sections, err = encodeSnapshot(w, seq, captures)
		return err
	})
	if err != nil {
		return p.fail(err)
	}
	if err := p.writeMeta(p.closed); err != nil {
		return p.fail(err)
	}
	p.compact(seq)
	m := p.store.metrics
	m.snapshots.Inc()
	m.snapshotEncoded.Add(uint64(sections))
	m.snapshotSeconds.Observe(time.Since(start))
	return nil
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

// compact removes the snapshots older than seq, the .tmp a crashed
// snapshot left, and the log files seq covers. Best-effort: leftovers are
// ignored by recovery and retried by the next compaction.
func (p *Persister) compact(seq uint64) {
	if ents, err := os.ReadDir(p.dir); err == nil {
		for _, ent := range ents {
			name := ent.Name()
			// snapMu serializes snapshots, so any .tmp is the debris of a
			// crashed snapshot attempt.
			tmp := strings.HasPrefix(name, snapshotPrefix) && strings.HasSuffix(name, tmpSuffix)
			if s, ok := snapshotSeq(name); (ok && s < seq) || tmp {
				os.Remove(filepath.Join(p.dir, name))
			}
		}
	}
	walRoot := filepath.Join(p.dir, walDirName)
	ents, err := os.ReadDir(walRoot)
	if err != nil {
		return
	}
	for _, ent := range ents {
		if ent.IsDir() {
			// A per-market directory of the layout before the single log;
			// Open refused any segment in it that a snapshot did not cover.
			os.RemoveAll(filepath.Join(walRoot, ent.Name()))
		} else if lf, ok := parseLogFileName(ent.Name()); ok && lf.epoch < seq {
			os.Remove(filepath.Join(walRoot, ent.Name()))
		}
	}
}

// Close flushes outstanding WAL bytes, takes a final snapshot (so the
// next Open replays no WAL), persists the clock, and stops the
// durability layer: afterwards Flush, Snapshot and SaveCursor write
// nothing and return an error. It returns the first durability error of
// the whole session, so owners that ignore per-tick Flush errors still
// surface them at shutdown.
func (p *Persister) Close() error {
	p.snapMu.Lock()
	defer p.snapMu.Unlock()
	if p.closed {
		return p.Err()
	}
	p.closed = true
	defer p.lock.Close() // releases the directory flock
	defer p.log.stop()
	if err := p.Err(); err != nil {
		return err
	}
	return p.snapshotLocked() // its rotation flushes the pending bytes
}
