package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"spotlight/internal/market"
)

// The write-ahead log is the store's durability primitive: every record
// appended to a shard is also framed into the store log in the same batch
// round, so a crash loses at most the records that were never flushed to
// disk. The log is one series of append-only files shared by every
// market, rotated by size and superseded by whole-store snapshots (see
// persist.go for the file layout and the recovery procedure).
//
// # Frame format
//
// A log file is the 8-byte magic "SPOTWAL2" followed by frames:
//
//	uint32 LE  payload length (including the type byte)
//	uint32 LE  CRC-32C (Castagnoli) of the payload
//	payload    1 type byte + the record's binary encoding
//
// The length prefix bounds the read, the checksum rejects torn or
// bit-flipped frames, and because frames are self-delimiting a reader
// recovers every record up to the first damaged byte — the prefix
// semantics crash recovery depends on.
//
// # Runs
//
// Record frames do not say which shard they belong to (a price frame
// carries no market at all). A run header frame does: it names a market
// and how many records that market's shard held before the run, and every
// record frame up to the next run header is that shard's next record. The
// writer emits one whenever consecutive rounds come from different shards
// and at the start of every flushed buffer, so every file starts with one.
// The counts make each frame's ordinal within its shard recoverable, which
// is how replay skips the frames a snapshot already covers and how it
// detects a log that does not continue the records before it.
//
// # Record encoding
//
// Records encode field-by-field in little-endian binary: uvarint-prefixed
// strings, float64 bits, and instants as (Unix seconds int64, nanoseconds
// uint32) pairs, decoded back in UTC. Binary instead of JSON keeps the
// per-record encode cost a small fraction of the in-memory append itself,
// which is what lets the WAL ride inside the shard's batch round without
// blowing the ingestion budget. The format is pinned by the golden-file
// tests in golden_test.go; changing it requires a new magic version.

// walMagic opens every log file.
const walMagic = "SPOTWAL2"

// walFrameHeader is the fixed part of a frame: length + CRC.
const walFrameHeader = 8

// maxWALPayload caps a frame's declared payload length. Real records are
// tens to hundreds of bytes; anything larger is a corrupt length prefix
// and must not turn into a giant allocation.
const maxWALPayload = 1 << 20

// walRecordType tags a frame's payload.
type walRecordType byte

const (
	walProbe walRecordType = iota + 1
	walSpike
	walBidSpread
	walRevocation
	walPrice
	// walRunHeader opens a run of one shard's record frames in the store
	// log; it never appears in a snapshot section.
	walRunHeader
	// walPosition and walSnapChunk exist only in follow streams (stream.go).
	walPosition
	walSnapChunk
)

// walCastagnoli is the CRC-32C table shared by encode and decode.
var walCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrWALCorrupt reports a damaged WAL frame: a bad length prefix, a
// checksum mismatch, or a payload that does not decode. Replay treats the
// first corrupt frame as the end of the log.
var ErrWALCorrupt = errors.New("store: corrupt WAL frame")

// errWALShort reports a frame cut off by a crash mid-write; like
// ErrWALCorrupt it ends replay, but it is the expected shape of a torn
// tail rather than damage inside the file.
var errWALShort = fmt.Errorf("%w: truncated frame", ErrWALCorrupt)

// appendWALFrame frames one payload (type byte + body) into buf.
func appendWALFrame(buf []byte, typ walRecordType, body func([]byte) []byte) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // length + CRC placeholders
	buf = append(buf, byte(typ))
	buf = body(buf)
	payload := buf[start+walFrameHeader:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, walCastagnoli))
	return buf
}

// decodeWALFrame reads one frame from data, returning the payload type,
// the body (without the type byte, aliasing data), and the total frame
// size consumed.
func decodeWALFrame(data []byte) (typ walRecordType, body []byte, n int, err error) {
	if len(data) < walFrameHeader {
		return 0, nil, 0, errWALShort
	}
	length := binary.LittleEndian.Uint32(data)
	sum := binary.LittleEndian.Uint32(data[4:])
	if length == 0 || length > maxWALPayload {
		return 0, nil, 0, fmt.Errorf("%w: payload length %d", ErrWALCorrupt, length)
	}
	if uint32(len(data)-walFrameHeader) < length {
		return 0, nil, 0, errWALShort
	}
	payload := data[walFrameHeader : walFrameHeader+int(length)]
	if crc32.Checksum(payload, walCastagnoli) != sum {
		return 0, nil, 0, fmt.Errorf("%w: checksum mismatch", ErrWALCorrupt)
	}
	return walRecordType(payload[0]), payload[1:], walFrameHeader + int(length), nil
}

// Field-level encoders. All append to buf and return it.

func appendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

func appendVarint(buf []byte, v int64) []byte {
	return binary.AppendVarint(buf, v)
}

func appendString(buf []byte, s string) []byte {
	buf = appendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendFloat(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

func appendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// appendTime encodes an instant as (Unix seconds, in-second nanoseconds),
// saturated to the stamp range first (columns.go). Decoding reconstructs
// the same instant in UTC — the one the live store's logs hold — so a
// store recovered from the WAL renders timestamps identically to the
// original process.
func appendTime(buf []byte, t time.Time) []byte {
	t = canonical(t)
	buf = appendVarint(buf, t.Unix())
	return appendUvarint(buf, uint64(t.Nanosecond()))
}

// appendMarket encodes the three components of a SpotID separately, so
// IDs round-trip exactly regardless of their contents.
func appendMarket(buf []byte, id market.SpotID) []byte {
	buf = appendString(buf, string(id.Zone))
	buf = appendString(buf, string(id.Type))
	return appendString(buf, string(id.Product))
}

// walReader decodes fields sequentially from one frame body. A read past
// the end or a malformed varint sets sticky failure; callers check err()
// once after reading every field.
type walReader struct {
	data []byte
	bad  bool
	// intern, when non-nil, deduplicates decoded strings: replay decodes
	// the same market components and status codes millions of times, and
	// the map hit (keyed by string(bytes), which Go evaluates without
	// allocating) returns the one shared copy instead of a fresh
	// allocation per record.
	intern map[string]string
}

func (r *walReader) err() error {
	if r.bad {
		return fmt.Errorf("%w: short payload", ErrWALCorrupt)
	}
	return nil
}

// end is err, plus an error for bytes left after the last field.
func (r *walReader) end() error {
	if err := r.err(); err != nil || len(r.data) == 0 {
		return err
	}
	return fmt.Errorf("%w: %d trailing payload bytes", ErrWALCorrupt, len(r.data))
}

// uvarint and varint keep a single-byte fast path in the inlinable
// wrapper: almost every varint a record carries (field lengths, enum
// codes, sub-second nanos) fits in one byte, and inlining the common
// case removes a call per field on the replay hot path.
func (r *walReader) uvarint() uint64 {
	if len(r.data) > 0 && r.data[0] < 0x80 {
		v := uint64(r.data[0])
		r.data = r.data[1:]
		return v
	}
	return r.uvarintSlow()
}

func (r *walReader) uvarintSlow() uint64 {
	v, n := binary.Uvarint(r.data)
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.data = r.data[n:]
	return v
}

func (r *walReader) varint() int64 {
	if len(r.data) > 0 && r.data[0] < 0x80 {
		b := r.data[0]
		r.data = r.data[1:]
		v := int64(b >> 1)
		if b&1 != 0 {
			v = ^v
		}
		return v
	}
	return r.varintSlow()
}

func (r *walReader) varintSlow() int64 {
	v, n := binary.Varint(r.data)
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.data = r.data[n:]
	return v
}

// bytes reads one uvarint-prefixed string field as raw bytes aliasing
// the frame; valid until the next read.
func (r *walReader) bytes() []byte {
	n := r.uvarint()
	if r.bad || n > uint64(len(r.data)) {
		r.bad = true
		return nil
	}
	raw := r.data[:n]
	r.data = r.data[n:]
	return raw
}

func (r *walReader) str() string { return r.internBytes(r.bytes()) }

func (r *walReader) float() float64 {
	if len(r.data) < 8 {
		r.bad = true
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.data))
	r.data = r.data[8:]
	return f
}

func (r *walReader) boolean() bool {
	if len(r.data) < 1 {
		r.bad = true
		return false
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b != 0
}

func (r *walReader) instant() time.Time {
	sec := r.varint()
	nsec := r.uvarint()
	if r.bad || nsec >= uint64(time.Second) {
		r.bad = true
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec)).UTC()
}

// market decodes a market field. A record's is nearly always its shard's
// (expect): when the raw bytes match, it returns expect without any map
// lookups or allocation. Anything else decodes in full — a record's
// caller then rejects it as another market's.
func (r *walReader) market(expect market.SpotID) market.SpotID {
	zone := r.bytes()
	typ := r.bytes()
	product := r.bytes()
	if string(zone) == string(expect.Zone) && string(typ) == string(expect.Type) && string(product) == string(expect.Product) {
		return expect
	}
	return market.SpotID{
		Zone:    market.Zone(r.internBytes(zone)),
		Type:    market.InstanceType(r.internBytes(typ)),
		Product: market.Product(r.internBytes(product)),
	}
}

// internBytes returns raw as a string, deduplicated through intern.
func (r *walReader) internBytes(raw []byte) string {
	if len(raw) == 0 {
		return ""
	}
	if r.intern != nil {
		if s, ok := r.intern[string(raw)]; ok {
			return s
		}
		s := string(raw)
		r.intern[s] = s
		return s
	}
	return string(raw)
}

// Record frames. A frame names the market of the shard that holds the
// record (id), as a snapshot section does, not the record's own Market
// field: a record appended through an Appender is its bound market's, and
// a price names no market at all.

func (r ProbeRecord) encode(buf []byte, id market.SpotID) []byte {
	return appendWALFrame(buf, walProbe, func(b []byte) []byte {
		b = appendTime(b, r.At)
		b = appendMarket(b, id)
		b = appendVarint(b, int64(r.Kind))
		b = appendVarint(b, int64(r.Trigger))
		b = appendMarket(b, r.TriggerMarket)
		b = appendVarint(b, int64(r.SourceKind))
		b = appendFloat(b, r.SpikeRatio)
		b = appendFloat(b, r.PriceRatio)
		b = appendBool(b, r.Rejected)
		b = appendString(b, r.Code)
		b = appendFloat(b, r.Bid)
		return appendFloat(b, r.Cost)
	})
}

func (r *ProbeRecord) decode(rd *walReader, id market.SpotID) {
	*r = ProbeRecord{
		At:            rd.instant(),
		Market:        rd.market(id),
		Kind:          ProbeKind(rd.varint()),
		Trigger:       Trigger(rd.varint()),
		TriggerMarket: rd.market(id),
		SourceKind:    ProbeKind(rd.varint()),
		SpikeRatio:    rd.float(),
		PriceRatio:    rd.float(),
		Rejected:      rd.boolean(),
		Code:          rd.str(),
		Bid:           rd.float(),
		Cost:          rd.float(),
	}
}

func (e SpikeEvent) encode(buf []byte, id market.SpotID) []byte {
	return appendWALFrame(buf, walSpike, func(b []byte) []byte {
		b = appendTime(b, e.At)
		b = appendMarket(b, id)
		b = appendFloat(b, e.Price)
		b = appendFloat(b, e.Ratio)
		return appendBool(b, e.Probed)
	})
}

func (e *SpikeEvent) decode(rd *walReader, id market.SpotID) {
	*e = SpikeEvent{At: rd.instant(), Market: rd.market(id), Price: rd.float(), Ratio: rd.float(), Probed: rd.boolean()}
}

func (r BidSpreadRecord) encode(buf []byte, id market.SpotID) []byte {
	return appendWALFrame(buf, walBidSpread, func(b []byte) []byte {
		b = appendTime(b, r.At)
		b = appendMarket(b, id)
		b = appendFloat(b, r.Published)
		b = appendFloat(b, r.Intrinsic)
		return appendVarint(b, int64(r.Attempts))
	})
}

func (r *BidSpreadRecord) decode(rd *walReader, id market.SpotID) {
	*r = BidSpreadRecord{At: rd.instant(), Market: rd.market(id), Published: rd.float(), Intrinsic: rd.float(), Attempts: int(rd.varint())}
}

func (r RevocationRecord) encode(buf []byte, id market.SpotID) []byte {
	return appendWALFrame(buf, walRevocation, func(b []byte) []byte {
		b = appendTime(b, r.At)
		b = appendMarket(b, id)
		b = appendFloat(b, r.Bid)
		return appendVarint(b, int64(r.Held))
	})
}

func (r *RevocationRecord) decode(rd *walReader, id market.SpotID) {
	*r = RevocationRecord{At: rd.instant(), Market: rd.market(id), Bid: rd.float(), Held: time.Duration(rd.varint())}
}

func (p PricePoint) encode(buf []byte, _ market.SpotID) []byte {
	return appendWALFrame(buf, walPrice, func(b []byte) []byte {
		b = appendTime(b, p.At)
		return appendFloat(b, p.Price)
	})
}

func (p *PricePoint) decode(rd *walReader) {
	*p = PricePoint{At: rd.instant(), Price: rd.float()}
}

// appendRunHeader frames a run header: the market whose shard the next
// record frames belong to, and that shard's record count before them.
func appendRunHeader(buf []byte, id market.SpotID, before uint64) []byte {
	return appendWALFrame(buf, walRunHeader, func(b []byte) []byte {
		b = appendMarket(b, id)
		return appendUvarint(b, before)
	})
}

// decodeRunHeader inverts appendRunHeader on one frame body.
func decodeRunHeader(body []byte, intern map[string]string) (market.SpotID, uint64, error) {
	r := walReader{data: body, intern: intern}
	id, before := r.market(market.SpotID{}), r.uvarint()
	if err := r.end(); err != nil {
		return market.SpotID{}, 0, err
	}
	return id, before, nil
}

// eachFrame hands fn the type and body of every frame in data, in order,
// until a frame or fn fails; count is how many passed.
func eachFrame(data []byte, fn func(typ walRecordType, body []byte) error) (count uint64, err error) {
	for off := 0; off < len(data); count++ {
		typ, body, n, err := decodeWALFrame(data[off:])
		if err == nil {
			err = fn(typ, body)
		}
		if err != nil {
			return count, err
		}
		off += n
	}
	return count, nil
}
