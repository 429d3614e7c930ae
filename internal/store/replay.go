package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"spotlight/internal/market"
)

// Recovery. The snapshot is partitioned by market — one section each — and
// so is the store's in-memory state, so recovery decodes and rebuilds every
// market concurrently: one replay task per market, a worker pool of
// up to GOMAXPROCS goroutines, and no locks on the hot path (the store is
// not published until Open returns, and exactly one worker ever touches a
// given shard). The log is one series for every market, so one serial
// pass goes first (scanLog): it checks every frame's checksum, finds the
// one place the log can end early, and splits the record frames into
// per-market runs for the workers to decode.
//
// The only cross-shard state — the rollup entries' member lists, counters
// and region aggregates, and the global generation counter — is NOT
// touched by the workers. Each task accumulates one rollupDelta (the same
// additive delta the live append path publishes per batch), and a
// sequential finalize pass walks the tasks in market-ID order, adopting
// each recovered shard into the store and publishing its delta. Every
// scope index therefore lists its members in the same order on every
// recovery of the same directory — the workers only decide *when* a
// shard's records are decoded, never the order anything joins a scope.

// replayTask is one market's unit of recovery work: its snapshot section
// plus its runs of log frames.
type replayTask struct {
	// sh is the shard the task rebuilds; finalize adopts it into the
	// store.
	sh *shard

	// snap is the market's section of the snapshot image, with the record
	// count the index pins for it; zero when the snapshot does not cover
	// this market.
	snap snapSection

	// Filled by the serial log pass: next is the shard record count after
	// the market's log frames seen so far, runs the record frames past
	// snap.records, in log order, aliasing the file images.
	next uint64
	runs []logRun

	// Worker results.
	delta rollupDelta
	maxAt time.Time
	err   error
}

// logRun is a run of one market's record frames and the log file that
// holds them.
type logRun struct {
	file   string
	frames []byte
}

// recovery is the state of one Open's replay: the tasks by market index in
// the store's dictionary (nil for an index with none), the string table the
// serial log pass decodes run headers with, and the store the rebuilt
// shards belong to.
type recovery struct {
	tasks  []*replayTask
	intern map[string]string
	store  *Store
}

func newRecovery(s *Store) *recovery {
	return &recovery{intern: make(map[string]string), store: s}
}

func (r *recovery) task(id market.SpotID) *replayTask {
	i := r.store.dicts.markets.id(id, noPrev)
	if n := int(i) + 1; n > len(r.tasks) {
		r.tasks = append(r.tasks, make([]*replayTask, n-len(r.tasks))...)
	}
	if r.tasks[i] == nil {
		r.tasks[i] = &replayTask{sh: r.store.newShard(i)}
	}
	return r.tasks[i]
}

// sorted returns the tasks in market-ID order.
func (r *recovery) sorted() []*replayTask {
	tasks := make([]*replayTask, 0, len(r.tasks))
	for _, t := range r.tasks {
		if t != nil {
			tasks = append(tasks, t)
		}
	}
	slices.SortFunc(tasks, func(a, b *replayTask) int { return a.sh.id().Compare(b.sh.id()) })
	return tasks
}

// openRun decodes a run header and returns its market's task, provided the
// run continues the shard's record count: from where the market's previous
// run ended, or from anywhere further that the snapshot still covers.
func (r *recovery) openRun(body []byte) (*replayTask, error) {
	id, before, err := decodeRunHeader(body, r.intern)
	if err != nil {
		return nil, err
	}
	t := r.task(id)
	if held := max(t.next, t.snap.records); before < t.next || before > held {
		return nil, fmt.Errorf("%w: run of %v continues from record %d, its shard holds %d", ErrWALCorrupt, id, before, held)
	}
	t.next = before
	return t, nil
}

// scanLog is the serial pass over the image of log file path. It checks every
// frame's checksum without decoding a record, follows the run headers, and
// hands each run's frames to its market's task, minus the ones whose
// ordinal the snapshot already covers (appended between a snapshot's log
// rotation and that shard's capture, they are in both). It returns the
// byte length of the valid prefix; err is nil only when the whole image is
// valid, and whatever the prefix holds has been handed over either way.
func (r *recovery) scanLog(path string, data []byte) (validLen int, err error) {
	if len(data) < len(walMagic) || string(data[:len(walMagic)]) != walMagic {
		return 0, fmt.Errorf("%w: bad log magic", ErrWALCorrupt)
	}
	var t *replayTask // the market of the current run
	keep := -1        // offset of the run's first frame to replay; -1 while the snapshot covers them
	endRun := func(end int) {
		if keep >= 0 {
			t.runs = append(t.runs, logRun{path, data[keep:end]})
		}
		keep = -1
	}
	off := len(walMagic)
	for off < len(data) {
		typ, body, n, ferr := decodeWALFrame(data[off:])
		switch {
		case ferr != nil:
		case typ == walRunHeader:
			endRun(off)
			t, ferr = r.openRun(body)
		case t == nil:
			ferr = fmt.Errorf("%w: record frame before any run header", ErrWALCorrupt)
		case !isRecord(typ):
			ferr = unknownFrame(typ)
		default:
			if keep < 0 && t.next >= t.snap.records {
				keep = off
			}
			t.next++
		}
		if ferr != nil {
			endRun(off)
			return off, ferr
		}
		off += n
	}
	endRun(off)
	return off, nil
}

// replayParallel is the one recovery loader: it rebuilds the store from
// the newest snapshot (info.seq 0: none) and the log files past it — one
// serial pass over the log, one task per market fanned out to the workers,
// then a sequential finalize in market-ID order. Returns the newest
// recovered record timestamp.
func replayParallel(walRoot string, files []logFile, info snapInfo, s *Store) (time.Time, error) {
	r := newRecovery(s)
	if info.seq > 0 {
		// One read; every task's section is a slice of this image, which
		// nothing references once the tasks are gone.
		image, err := os.ReadFile(info.path)
		if err != nil {
			return time.Time{}, fmt.Errorf("store: read %s: %w", info.path, err)
		}
		sections, err := parseSnapshot(image, info.seq)
		if err != nil {
			return time.Time{}, snapshotDamaged(info.path, err)
		}
		for _, sec := range sections {
			r.task(sec.id).snap = sec
		}
	}

	// The serial log pass. The first damaged frame — in practice the torn
	// tail of a crash mid-flush, in the newest file — ends the log: the
	// file is cut back to its valid prefix and every later file dropped,
	// so this and every future recovery see the same prefix of the append
	// history. A file with nothing past its magic (a crash between the
	// header write and the first frame write) holds nothing to keep.
	for i, lf := range files {
		path := filepath.Join(walRoot, lf.name())
		data, err := os.ReadFile(path)
		if err != nil {
			return time.Time{}, fmt.Errorf("store: read %s: %w", path, err)
		}
		validLen, serr := r.scanLog(path, data)
		if validLen <= len(walMagic) {
			err = os.Remove(path)
		} else if serr != nil {
			err = os.Truncate(path, int64(validLen))
		}
		if err != nil {
			return time.Time{}, fmt.Errorf("store: trim damaged %s: %w", path, err)
		}
		if serr == nil {
			continue
		}
		for _, later := range files[i+1:] {
			lp := filepath.Join(walRoot, later.name())
			if err := os.Remove(lp); err != nil {
				return time.Time{}, fmt.Errorf("store: drop unreachable %s: %w", lp, err)
			}
		}
		break
	}

	tasks := r.sorted()

	// Replay is a bounded bulk load: the heap grows monotonically toward
	// the store's steady-state size, and every log is reserved to its
	// final length up front. Letting the collector run concurrent
	// mark cycles (and keep write barriers armed) while that growth is in
	// flight only re-scans data that is about to grow again, so park it
	// for the duration and let the deferred restore trigger one cycle
	// over the settled heap.
	gcWas := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcWas)

	workers := min(runtime.GOMAXPROCS(0), len(tasks))
	var wg sync.WaitGroup
	next := make(chan *replayTask)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One intern table per worker: shared decoded strings
			// without shared writes.
			intern := make(map[string]string)
			for t := range next {
				t.run(info.path, intern)
			}
		}()
	}
	for _, t := range tasks {
		next <- t
	}
	close(next)
	wg.Wait()

	// Finalize in market-ID order (tasks are already sorted): adopt the
	// worker-built shards and publish each task's delta to the rollup
	// entries — the deterministic order every recovery repeats.
	var maxAt time.Time
	for _, t := range tasks {
		if t.err != nil {
			return time.Time{}, t.err
		}
		if t.sh.gen.Load() == 0 {
			// No records recovered for this market (a run header was its
			// last valid frame): shards exist iff they hold records.
			continue
		}
		s.adoptShard(t.sh)
		t.sh.publish(&t.delta)
		if t.maxAt.After(maxAt) {
			maxAt = t.maxAt
		}
	}
	return maxAt, nil
}

// frameCounts counts a byte stream's frames per record type — a cheap
// pre-pass (length-prefix hops, no CRC, no field decode) so replay can
// size every log exactly before the real decode. Torn tails stop the
// count early and corrupt prefixes may overcount; both only affect
// reserved capacity, never contents.
type frameCounts [walPrice + 1]int

func countFrames(c *frameCounts, data []byte) {
	off := 0
	for off+walFrameHeader < len(data) {
		length := binary.LittleEndian.Uint32(data[off:])
		if length == 0 || length > maxWALPayload {
			return
		}
		end := off + walFrameHeader + int(length)
		if end > len(data) {
			return
		}
		if typ := data[off+walFrameHeader]; int(typ) < len(c) {
			c[typ]++
		}
		off = end
	}
}

// run decodes one market's snapshot section and log runs into its shard;
// snapPath names the snapshot file in errors. No locks: the shard is
// exclusively this worker's until finalize. Every record lands through the
// live append path's land — every open outage start rebuilds identically —
// counted into the task's delta for finalize; a record that goes back in
// time within its family fails the task, naming its file (ErrBackInTime).
func (t *replayTask) run(snapPath string, intern map[string]string) {
	// Pre-count frames first, so the logs are reserved before the decode
	// loop starts, and nothing in it allocates per frame (the price log
	// settles its reservation once every price has landed).
	var counts frameCounts
	countFrames(&counts, t.snap.frames)
	for _, run := range t.runs {
		countFrames(&counts, run.frames)
	}
	for typ := walProbe; typ <= walPrice; typ++ {
		if n := counts[typ]; n > 0 {
			codecs[typ].reserve(t.sh, n)
		}
	}

	id := t.sh.id()
	apply := func(typ walRecordType, body []byte) error {
		if !isRecord(typ) {
			return unknownFrame(typ)
		}
		at, err := codecs[typ].replay(body, id, intern, t.sh, &t.delta)
		if at.After(t.maxAt) {
			t.maxAt = at
		}
		return err
	}
	if err := decodeSection(t.snap, apply); err != nil {
		t.err = snapshotDamaged(snapPath, err)
		return
	}
	for _, run := range t.runs {
		if _, err := eachFrame(run.frames, apply); err != nil {
			// The frame passed its checksum in the serial pass, so this is
			// not a torn write, and cutting the log here would drop other
			// markets' records the pass already accepted.
			t.err = fmt.Errorf("store: log %s holds a frame of %v that passes its checksum but does not land: %w", run.file, id, err)
			return
		}
	}
	t.sh.prices.settle()
}
