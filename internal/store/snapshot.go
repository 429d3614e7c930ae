package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"

	"spotlight/internal/market"
)

// Snapshot format: one file per snapshot, snapshot-<SEQ>.snap.
//
//	magic     "SPOTSNP3"
//	sections  one per non-empty shard, back to back in market-ID order
//	index     one entry per section: market, offset, length, records
//	footer    index offset, SEQ, CRC-32C of index + both, "SPOTSNPE"
//
// A section is the WAL's CRC-framed record encoding (wal.go) — one frame
// per record, one family after another, each in append order (probes, spikes,
// bid spreads, revocations, prices; derived outages are not stored) — so
// there is one binary record format and one streaming decoder for both
// halves of recovery. An index entry is a uvarint-prefixed "zone:type:
// product" string and three uvarints; its record count is the shard's
// generation at the cut (every record bumps it by one), which gives
// recovery an end-to-end check and the ordinal rule that skips log frames
// the snapshot already holds. The footer is fixed-size, so a reader finds
// the index from the end of the file.
//
// Encode and decode both stream record-at-a-time: the encoder walks each
// capture's logs and frames one record per iteration into one buffered
// writer, the decoder hands each decoded frame straight to the shard
// replay — neither side ever materializes a []Record.
//
// Only a rename publishes: the image goes to snapshot-<SEQ>.snap.tmp, is
// fsynced once, renamed, and the data directory fsynced (publishFile). A
// crash mid-snapshot leaves a .tmp, which recovery ignores and compaction
// removes; a published file is therefore complete, and any damage in it —
// there are no valid-prefix semantics here — fails Open.

const (
	snapMagic    = "SPOTSNP3"
	snapEndMagic = "SPOTSNPE"

	// snapFooterSize is the footer: index offset and SEQ (uint64 LE each),
	// the CRC-32C of the index and those sixteen bytes, the closing magic.
	snapFooterSize = 8 + 8 + 4 + len(snapEndMagic)
)

// snapshotName renders a snapshot file name. snapshotSeq scans the SEQ a
// snapshot-* name leads with (0 when it has none) and reports whether the
// name is that SEQ's canonical rendering — the same round-trip check as log
// file names; anything else is not a file this version wrote.
func snapshotName(seq uint64) string {
	return fmt.Sprintf("%s%08d.snap", snapshotPrefix, seq)
}

func snapshotSeq(name string) (seq uint64, canonical bool) {
	_, _ = fmt.Sscanf(name, snapshotPrefix+"%d", &seq) // no digits: SEQ 0
	return seq, name == snapshotName(seq)
}

// encodeSnapshot streams the captures into w as one snapshot image and
// returns how many sections it wrote. Write errors are bufio's sticky one,
// collected by the final Flush.
func encodeSnapshot(w io.Writer, seq uint64, captures []shardCapture) (sections int, err error) {
	bw := bufio.NewWriterSize(w, 64<<10)
	off := uint64(len(snapMagic))
	bw.WriteString(snapMagic)
	var trailer, buf []byte // trailer: the index, then the footer
	put := func(frame []byte) []byte {
		bw.Write(frame)
		off += uint64(len(frame))
		return frame[:0]
	}
	for k := range captures {
		c := &captures[k]
		if c.gen == 0 {
			continue // a shard exists iff it holds records; nothing to store
		}
		start := off
		for typ := walProbe; typ <= walPrice; typ++ {
			buf = codecs[typ].frames(buf, c, put)
		}
		trailer = appendString(trailer, c.id.String())
		trailer = appendUvarint(trailer, start)
		trailer = appendUvarint(trailer, off-start)
		trailer = appendUvarint(trailer, c.gen)
		sections++
	}
	trailer = binary.LittleEndian.AppendUint64(trailer, off)
	trailer = binary.LittleEndian.AppendUint64(trailer, seq)
	trailer = binary.LittleEndian.AppendUint32(trailer, crc32.Checksum(trailer, walCastagnoli))
	bw.Write(trailer)
	bw.WriteString(snapEndMagic)
	return sections, bw.Flush()
}

// snapSection is one index entry of a snapshot image.
type snapSection struct {
	id      market.SpotID
	frames  []byte // the market's record frames, aliasing the image
	records uint64 // how many the index says there are
}

// parseSnapshot validates the footer and index of snapshot seq's image and
// returns its sections: they must tile the bytes between the magic and the
// index exactly, in strictly ascending market order. Nothing is sized from
// a count the image claims.
func parseSnapshot(data []byte, seq uint64) ([]snapSection, error) {
	if len(data) < len(snapMagic)+snapFooterSize || string(data[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("%w: bad snapshot magic", ErrWALCorrupt)
	}
	foot := data[len(data)-snapFooterSize:]
	if string(foot[20:]) != snapEndMagic {
		return nil, fmt.Errorf("%w: bad closing magic", ErrWALCorrupt)
	}
	indexOff, indexEnd := binary.LittleEndian.Uint64(foot), uint64(len(data)-snapFooterSize)
	if indexOff < uint64(len(snapMagic)) || indexOff > indexEnd {
		return nil, fmt.Errorf("%w: index offset %d outside the file", ErrWALCorrupt, indexOff)
	}
	if crc32.Checksum(data[indexOff:indexEnd+16], walCastagnoli) != binary.LittleEndian.Uint32(foot[16:]) {
		return nil, fmt.Errorf("%w: index checksum mismatch", ErrWALCorrupt)
	}
	if got := binary.LittleEndian.Uint64(foot[8:]); got != seq {
		return nil, fmt.Errorf("%w: footer claims seq %d", ErrWALCorrupt, got)
	}
	var sections []snapSection
	r := walReader{data: data[indexOff:indexEnd]}
	pos, prev := uint64(len(snapMagic)), ""
	for len(r.data) > 0 {
		name, off, length, records := string(r.bytes()), r.uvarint(), r.uvarint(), r.uvarint()
		if err := r.err(); err != nil {
			return nil, fmt.Errorf("index entry %d: %w", len(sections), err)
		}
		id, err := market.ParseSpotID(name)
		if err != nil {
			return nil, fmt.Errorf("%w: index entry %d: %v", ErrWALCorrupt, len(sections), err)
		}
		if name <= prev {
			return nil, fmt.Errorf("%w: index names %q after %q", ErrWALCorrupt, name, prev)
		}
		if off != pos || length > indexOff-pos {
			return nil, fmt.Errorf("%w: section of %q is %d bytes at %d, the sections before it end at %d and the index starts at %d", ErrWALCorrupt, name, length, off, pos, indexOff)
		}
		sections = append(sections, snapSection{id: id, frames: data[pos : pos+length], records: records})
		pos, prev = pos+length, name
	}
	if pos != indexOff {
		return nil, fmt.Errorf("%w: sections end at %d, the index starts at %d", ErrWALCorrupt, pos, indexOff)
	}
	return sections, nil
}

// decodeSection hands fn the type and body of each of a section's frames,
// one at a time; a frame fn refuses, or a record count other than the
// index's, is an error.
func decodeSection(sec snapSection, fn func(typ walRecordType, body []byte) error) error {
	n, err := eachFrame(sec.frames, fn)
	if err == nil && n != sec.records {
		err = fmt.Errorf("%w: %d records, the index claims %d", ErrWALCorrupt, n, sec.records)
	}
	if err != nil {
		return fmt.Errorf("section of %v: %w", sec.id, err)
	}
	return nil
}

// snapshotDamaged is Open's refusal of a published snapshot file it
// cannot load. Only the newest snapshot is acceptable: compaction deleted
// the log epochs it covers, so falling back to an older one would present
// large data loss as a successful recovery. Snapshots are rename-published,
// so only external corruption gets here; the operator accepts the loss
// explicitly.
func snapshotDamaged(path string, err error) error {
	return fmt.Errorf("store: snapshot %s is damaged (remove the file to recover from whatever older snapshot and log remain, accepting the loss of the records it covered and of the log records that continue from them): %w", path, err)
}

// snapInfo locates the newest snapshot in a data directory.
type snapInfo struct {
	seq  uint64 // 0 when no snapshot exists
	path string
}

// findLatestSnapshot scans dir for the newest snapshot file (rename-
// published, so presence implies completeness); .tmp debris is ignored.
// Any other snapshot-* entry is another release's format — a
// snapshot-<SEQ>/ directory, a snapshot-<SEQ>.json — that this version
// cannot read: one at least as new as the newest readable snapshot covers
// records nothing else here does, and opening past it would present their
// loss as a successful Open, so it fails the scan.
func findLatestSnapshot(dir string) (snapInfo, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return snapInfo{}, fmt.Errorf("store: list %s: %w", dir, err)
	}
	var info, foreign snapInfo
	for _, ent := range ents {
		name := ent.Name()
		if !strings.HasPrefix(name, snapshotPrefix) || strings.HasSuffix(name, tmpSuffix) {
			continue
		}
		path := filepath.Join(dir, name)
		seq, canonical := snapshotSeq(name)
		if canonical && !ent.IsDir() {
			if seq > info.seq {
				info = snapInfo{seq: seq, path: path}
			}
		} else if foreign.path == "" || seq > foreign.seq {
			// A name without a SEQ scans as 0, and is refused only while
			// nothing readable exists.
			foreign = snapInfo{seq: seq, path: path}
		}
	}
	if foreign.path != "" && foreign.seq >= info.seq {
		return snapInfo{}, fmt.Errorf("store: %s is a snapshot in another release's format, which this version cannot read, and no snapshot it can read is newer (serve this directory with the release that wrote it, or remove the entry to recover from whatever readable snapshot and log remain, accepting the loss of the records only it covered)", foreign.path)
	}
	return info, nil
}
