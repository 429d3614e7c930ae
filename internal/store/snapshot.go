package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"strings"

	"spotlight/internal/market"
)

// Snapshot format (version 2): a directory per snapshot.
//
//	snapshot-<SEQ>/
//	  manifest.json            {"version":2,"seq":N,"shards":[...]}
//	  <escaped-market>.snap    per-shard binary record stream
//
// A shard file is the 8-byte magic "SPOTSNP2" followed by the WAL's
// CRC-framed record encoding (wal.go) — one frame per record, families
// in append order within each family (probes, spikes, bid spreads,
// revocations, prices; derived outages are not stored). Reusing the WAL
// codec means one binary format, one fuzz surface,
// and one streaming decoder for both halves of recovery.
//
// Encode and decode both stream record-at-a-time: the encoder walks a
// shard capture's columns and frames one stack-allocated record per
// iteration, the decoder hands each decoded frame straight to the shard
// replay — neither side ever materializes a []Record.
//
// The manifest pins each shard file's record count (the shard's
// generation at the cut, since every record bumps it by one), which
// gives recovery an end-to-end integrity check and makes snapshots
// incremental: a shard whose generation is unchanged since the previous
// snapshot must have byte-identical contents, so its file is hard-linked
// from the previous snapshot directory instead of re-encoded — a
// periodic snapshot of a mostly-idle fleet costs I/O proportional to
// what changed.
//
// Publication is atomic: the directory is assembled as
// snapshot-<SEQ>.tmp (files fsynced, then the directory), renamed to its
// final name, and the parent fsynced — a crash mid-snapshot leaves only
// a .tmp directory, which recovery ignores and compaction removes.
//
// This is the only snapshot format recovery reads. The version-1 layout —
// one whole-store snapshot-<SEQ>.json, which no release since the
// directory format can write — is refused by name (findLatestSnapshot):
// recovering WAL-only past it would present the loss of every record it
// covers as a successful Open.

// snapMagic opens every shard snapshot file.
const snapMagic = "SPOTSNP2"

const (
	snapManifestName = "manifest.json"
	snapFileSuffix   = ".snap"
	snapTmpSuffix    = ".tmp"
)

// snapManifest is the manifest.json schema.
type snapManifest struct {
	Version int                 `json:"version"`
	Seq     uint64              `json:"seq"`
	Shards  []snapManifestShard `json:"shards"`
}

// snapManifestShard describes one shard file of a snapshot.
type snapManifestShard struct {
	// Market is the canonical market ID the file belongs to.
	Market string `json:"market"`
	// File is the shard file's name within the snapshot directory.
	File string `json:"file"`
	// Records is the exact number of record frames in the file — the
	// shard's generation at the cut.
	Records uint64 `json:"records"`
}

// snapshotDirName renders a snapshot directory name; snapshotDirSeq
// inverts it (with the same canonical round-trip check as log file names).
func snapshotDirName(seq uint64) string {
	return fmt.Sprintf("%s%08d", snapshotPrefix, seq)
}

func snapshotDirSeq(name string) (uint64, bool) {
	var seq uint64
	n, err := fmt.Sscanf(name, snapshotPrefix+"%d", &seq)
	if err != nil || n != 1 {
		return 0, false
	}
	if name != snapshotDirName(seq) {
		return 0, false
	}
	return seq, true
}

// snapFileName returns the shard file name for a market: the
// URL-path-escaped canonical ID ("Linux/UNIX" contains a slash) plus the
// .snap suffix.
func snapFileName(id market.SpotID) string {
	return url.PathEscape(id.String()) + snapFileSuffix
}

// encodeShardSnapshot streams one shard capture's records into w as
// magic + WAL frames. The per-record state is a single stack record and
// a reused frame buffer; nothing is materialized.
func encodeShardSnapshot(w io.Writer, c *shardCapture) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	if _, err := bw.WriteString(snapMagic); err != nil {
		return err
	}
	var buf []byte
	emit := func(enc func([]byte) []byte) error {
		buf = enc(buf[:0])
		_, err := bw.Write(buf)
		return err
	}
	for i := 0; i < c.probes.n(); i++ {
		r := c.probes.get(i, c.id)
		if err := emit(func(b []byte) []byte { return appendProbeFrame(b, r) }); err != nil {
			return err
		}
	}
	for i := 0; i < c.spikes.n(); i++ {
		e := c.spikes.get(i, c.id)
		if err := emit(func(b []byte) []byte { return appendSpikeFrame(b, e) }); err != nil {
			return err
		}
	}
	for i := 0; i < c.bidSpreads.n(); i++ {
		r := c.bidSpreads.get(i, c.id)
		if err := emit(func(b []byte) []byte { return appendBidSpreadFrame(b, r) }); err != nil {
			return err
		}
	}
	for i := 0; i < c.revocations.n(); i++ {
		r := c.revocations.get(i, c.id)
		if err := emit(func(b []byte) []byte { return appendRevocationFrame(b, r) }); err != nil {
			return err
		}
	}
	for i := 0; i < c.prices.n(); i++ {
		p := c.prices.get(i)
		if err := emit(func(b []byte) []byte { return appendPriceFrame(b, p) }); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// decodeShardSnapshot streams a shard snapshot image through fn, one
// decoded record at a time. Unlike the log there are no valid-prefix
// semantics: snapshots are rename-published, so any damage — bad magic, a
// corrupt frame, a record of the wrong market — is an error, never a
// truncation point. Returns the number of records decoded.
func decodeShardSnapshot(data []byte, id market.SpotID, intern map[string]string, fn func(*walEntry)) (uint64, error) {
	if len(data) < len(snapMagic) || string(data[:len(snapMagic)]) != snapMagic {
		return 0, fmt.Errorf("%w: bad shard snapshot magic", ErrWALCorrupt)
	}
	return decodeFrames(data[len(snapMagic):], id, intern, fn)
}

// snapDirState remembers the published snapshot directory incremental
// encoding links unchanged shard files from. Guarded by Persister.snapMu
// (all snapshot writes serialize there).
type snapDirState struct {
	seq uint64
	dir string
	// records maps shard file name -> record count in that snapshot.
	records map[string]uint64
	// linked/encoded count how this snapshot's shard files were produced
	// (hard-linked unchanged vs freshly encoded) — the incremental-
	// snapshot efficiency signal the metrics layer reports.
	linked, encoded int
}

// writeSnapshotV2 assembles and atomically publishes snapshot seq from
// the captures, hard-linking any shard file whose record count is
// unchanged since prev (nil when there is no previous snapshot, or its
// directory is gone). Returns the state of the published snapshot
// for the next round's linking.
func writeSnapshotV2(dir string, seq uint64, captures []shardCapture, prev *snapDirState) (*snapDirState, error) {
	tmp := filepath.Join(dir, snapshotDirName(seq)+snapTmpSuffix)
	if err := os.RemoveAll(tmp); err != nil {
		return nil, fmt.Errorf("store: clear %s: %w", tmp, err)
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", tmp, err)
	}
	man := snapManifest{Version: 2, Seq: seq}
	state := &snapDirState{seq: seq, records: make(map[string]uint64, len(captures))}
	for i := range captures {
		c := &captures[i]
		if c.gen == 0 {
			continue // a shard exists iff it holds records; nothing to store
		}
		name := snapFileName(c.id)
		path := filepath.Join(tmp, name)
		if prev != nil && prev.records[name] == c.gen {
			// Unchanged since the previous snapshot: same generation means
			// the same record prefix, so the previous file is this file.
			// Hard-link it (content already durable); fall through to a
			// fresh encode if the filesystem refuses.
			if err := os.Link(filepath.Join(prev.dir, name), path); err == nil {
				man.Shards = append(man.Shards, snapManifestShard{Market: c.id.String(), File: name, Records: c.gen})
				state.records[name] = c.gen
				state.linked++
				continue
			}
		}
		if err := encodeShardFile(path, c); err != nil {
			return nil, err
		}
		man.Shards = append(man.Shards, snapManifestShard{Market: c.id.String(), File: name, Records: c.gen})
		state.records[name] = c.gen
		state.encoded++
	}
	if err := writeSyncedFile(filepath.Join(tmp, snapManifestName), mustJSON(man)); err != nil {
		return nil, err
	}
	if err := syncPath(tmp); err != nil {
		return nil, err
	}
	final := filepath.Join(dir, snapshotDirName(seq))
	if err := os.Rename(tmp, final); err != nil {
		return nil, fmt.Errorf("store: publish %s: %w", final, err)
	}
	if err := syncPath(dir); err != nil {
		return nil, err
	}
	state.dir = final
	return state, nil
}

// encodeShardFile streams one capture into path and fsyncs it.
func encodeShardFile(path string, c *shardCapture) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: create %s: %w", path, err)
	}
	werr := encodeShardSnapshot(f, c)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("store: write %s: %w", path, werr)
	}
	return nil
}

// writeSyncedFile writes data to path and fsyncs it. No rename dance:
// callers write inside a not-yet-published .tmp snapshot directory,
// whose rename is the atomic publication point.
func writeSyncedFile(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: create %s: %w", path, err)
	}
	_, werr := f.Write(data)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("store: write %s: %w", path, werr)
	}
	return nil
}

// syncPath fsyncs a file or directory by path.
func syncPath(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("store: open for sync %s: %w", path, err)
	}
	serr := d.Sync()
	d.Close()
	if serr != nil {
		return fmt.Errorf("store: sync %s: %w", path, serr)
	}
	return nil
}

// loadSnapManifest reads and validates a snapshot directory's manifest.
func loadSnapManifest(dirPath string) (snapManifest, error) {
	data, err := os.ReadFile(filepath.Join(dirPath, snapManifestName))
	if err != nil {
		return snapManifest{}, fmt.Errorf("store: read snapshot manifest: %w", err)
	}
	var man snapManifest
	if err := json.Unmarshal(data, &man); err != nil {
		return snapManifest{}, fmt.Errorf("store: decode snapshot manifest: %w", err)
	}
	if man.Version != 2 {
		return snapManifest{}, fmt.Errorf("store: unsupported snapshot version %d", man.Version)
	}
	for _, sh := range man.Shards {
		if sh.File != filepath.Base(sh.File) || !strings.HasSuffix(sh.File, snapFileSuffix) {
			return snapManifest{}, fmt.Errorf("store: snapshot manifest names invalid file %q", sh.File)
		}
	}
	return man, nil
}

// snapInfo locates the newest complete snapshot in a data directory.
type snapInfo struct {
	seq      uint64 // 0 when no snapshot exists
	dirPath  string
	manifest snapManifest
}

// findLatestSnapshot scans dir for the newest snapshot directory
// (rename-published, so presence implies completeness); in-progress .tmp
// directories are ignored. A leftover version-1 snapshot file fails the
// scan: see the format note above.
func findLatestSnapshot(dir string) (snapInfo, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return snapInfo{}, fmt.Errorf("store: list %s: %w", dir, err)
	}
	var info snapInfo
	for _, ent := range ents {
		name := ent.Name()
		if !ent.IsDir() {
			if strings.HasPrefix(name, snapshotPrefix) && strings.HasSuffix(name, ".json") {
				return snapInfo{}, fmt.Errorf("store: %s is a version-1 snapshot file, which this version cannot read (open the directory once with a release that reads it, whose next snapshot rewrites it in the directory format; or remove the file to recover from newer snapshots + WAL alone, accepting the loss of the records only it covered)", filepath.Join(dir, name))
			}
			continue
		}
		if seq, ok := snapshotDirSeq(name); ok && seq > info.seq {
			info = snapInfo{seq: seq, dirPath: filepath.Join(dir, name)}
		}
	}
	if info.seq == 0 {
		return info, nil
	}
	// The newest snapshot is the only acceptable one: compaction deleted
	// the log epochs it covers, so silently falling back to an older
	// snapshot would present large data loss as a successful recovery.
	// Snapshots are rename-published, so only external corruption gets
	// here; fail loudly and let the operator accept the loss explicitly.
	info.manifest, err = loadSnapManifest(info.dirPath)
	if err != nil {
		return snapInfo{}, fmt.Errorf("store: snapshot %s is damaged (remove the directory to recover from whatever older snapshot and log remain, accepting the loss of the records it covered and of the log records that continue from them): %w", filepath.Base(info.dirPath), err)
	}
	if info.manifest.Seq != info.seq {
		return snapInfo{}, fmt.Errorf("store: snapshot %s manifest claims seq %d", filepath.Base(info.dirPath), info.manifest.Seq)
	}
	return info, nil
}
