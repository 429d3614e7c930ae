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
// the same instant in UTC — the one the live store's columns hold — so a
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

func (r *walReader) str() string {
	raw := r.bytes()
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

func (r *walReader) market() market.SpotID {
	zone := r.str()
	typ := r.str()
	product := r.str()
	return market.SpotID{
		Zone:    market.Zone(zone),
		Type:    market.InstanceType(typ),
		Product: market.Product(product),
	}
}

// marketExpect decodes a market field that is nearly always the given ID
// (a shard's snapshot section and log runs only hold its own market's
// records): when the raw
// bytes match, it returns the expected ID without any map lookups or
// allocation. Mismatches fall back to the general decoder — the caller's
// market check then rejects them where it matters.
func (r *walReader) marketExpect(expect market.SpotID) market.SpotID {
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

// internBytes is str()'s dedup step for bytes already read.
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

// Record encoders: one frame per record.

func appendProbeFrame(buf []byte, rec ProbeRecord) []byte {
	return appendWALFrame(buf, walProbe, func(b []byte) []byte {
		b = appendTime(b, rec.At)
		b = appendMarket(b, rec.Market)
		b = appendVarint(b, int64(rec.Kind))
		b = appendVarint(b, int64(rec.Trigger))
		b = appendMarket(b, rec.TriggerMarket)
		b = appendVarint(b, int64(rec.SourceKind))
		b = appendFloat(b, rec.SpikeRatio)
		b = appendFloat(b, rec.PriceRatio)
		b = appendBool(b, rec.Rejected)
		b = appendString(b, rec.Code)
		b = appendFloat(b, rec.Bid)
		return appendFloat(b, rec.Cost)
	})
}

func appendSpikeFrame(buf []byte, e SpikeEvent) []byte {
	return appendWALFrame(buf, walSpike, func(b []byte) []byte {
		b = appendTime(b, e.At)
		b = appendMarket(b, e.Market)
		b = appendFloat(b, e.Price)
		b = appendFloat(b, e.Ratio)
		return appendBool(b, e.Probed)
	})
}

func appendBidSpreadFrame(buf []byte, r BidSpreadRecord) []byte {
	return appendWALFrame(buf, walBidSpread, func(b []byte) []byte {
		b = appendTime(b, r.At)
		b = appendMarket(b, r.Market)
		b = appendFloat(b, r.Published)
		b = appendFloat(b, r.Intrinsic)
		return appendVarint(b, int64(r.Attempts))
	})
}

func appendRevocationFrame(buf []byte, r RevocationRecord) []byte {
	return appendWALFrame(buf, walRevocation, func(b []byte) []byte {
		b = appendTime(b, r.At)
		b = appendMarket(b, r.Market)
		b = appendFloat(b, r.Bid)
		return appendVarint(b, int64(r.Held))
	})
}

func appendPriceFrame(buf []byte, p PricePoint) []byte {
	return appendWALFrame(buf, walPrice, func(b []byte) []byte {
		b = appendTime(b, p.At)
		return appendFloat(b, p.Price)
	})
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
	id, before := r.market(), r.uvarint()
	if err := r.end(); err != nil {
		return market.SpotID{}, 0, err
	}
	return id, before, nil
}

// walEntry is one decoded WAL record; exactly one of the record fields is
// meaningful, selected by typ.
type walEntry struct {
	typ        walRecordType
	probe      ProbeRecord
	spike      SpikeEvent
	bidSpread  BidSpreadRecord
	revocation RevocationRecord
	price      PricePoint
}

// at returns the record's timestamp.
func (e walEntry) at() time.Time {
	switch e.typ {
	case walProbe:
		return e.probe.At
	case walSpike:
		return e.spike.At
	case walBidSpread:
		return e.bidSpread.At
	case walRevocation:
		return e.revocation.At
	case walPrice:
		return e.price.At
	default:
		return time.Time{}
	}
}

// matchMarketBytes advances past one encoded market (three uvarint-
// prefixed strings) when it is byte-for-byte the given ID or entirely
// empty. Returns the new offset, the decoded ID, and whether it matched
// one of those two shapes; any other market (or any component length
// needing a multi-byte prefix) reports false so the caller can fall back
// to the general decoder.
func matchMarketBytes(body []byte, i int, id market.SpotID) (int, market.SpotID, bool) {
	// An unset market encodes as three zero lengths; sniff that shape
	// first so a zero TriggerMarket doesn't have to match the shard ID.
	if i+3 <= len(body) && body[i] == 0 && body[i+1] == 0 && body[i+2] == 0 {
		return i + 3, market.SpotID{}, true
	}
	comps := [3]string{string(id.Zone), string(id.Type), string(id.Product)}
	for _, want := range comps {
		if i >= len(body) {
			return i, market.SpotID{}, false
		}
		n := int(body[i])
		if n >= 0x80 || n != len(want) {
			return i, market.SpotID{}, false
		}
		i++
		if i+n > len(body) || string(body[i:i+n]) != want {
			return i, market.SpotID{}, false
		}
		i += n
	}
	return i, id, true
}

// decodeProbeFast is the replay hot path: one cursor pass over a probe
// frame body with every varint read inline and both market fields
// compared in place against the shard's own ID (which they virtually
// always are — a shard's frames only hold its own market's records, and
// a probe's trigger market is either its own market or unset). It only
// commits when the whole body parses as that common shape AND is fully
// consumed; anything else — multi-byte component lengths, a foreign
// trigger market, trailing bytes, corruption — reports false and the
// caller re-decodes through the general walReader path, which also owns
// producing the precise error.
func decodeProbeFast(e *ProbeRecord, body []byte, id market.SpotID, intern map[string]string) bool {
	sec, n := binary.Varint(body)
	if n <= 0 {
		return false
	}
	i := n
	nsec, n := binary.Uvarint(body[i:])
	if n <= 0 || nsec >= uint64(time.Second) {
		return false
	}
	i += n
	var ok bool
	var mkt, trig market.SpotID
	if i, mkt, ok = matchMarketBytes(body, i, id); !ok || mkt != id {
		return false
	}
	// Kind and Trigger are tiny enums: single-byte varints or bust.
	if i+2 > len(body) || body[i] >= 0x80 || body[i+1] >= 0x80 {
		return false
	}
	kind := int64(body[i] >> 1)
	if body[i]&1 != 0 {
		kind = ^kind
	}
	trigger := int64(body[i+1] >> 1)
	if body[i+1]&1 != 0 {
		trigger = ^trigger
	}
	i += 2
	if i, trig, ok = matchMarketBytes(body, i, id); !ok {
		return false
	}
	if i >= len(body) || body[i] >= 0x80 {
		return false
	}
	srcKind := int64(body[i] >> 1)
	if body[i]&1 != 0 {
		srcKind = ^srcKind
	}
	i++
	if i+8+8+1 > len(body) {
		return false
	}
	spikeRatio := math.Float64frombits(binary.LittleEndian.Uint64(body[i:]))
	priceRatio := math.Float64frombits(binary.LittleEndian.Uint64(body[i+8:]))
	rejected := body[i+16] != 0
	i += 17
	if i >= len(body) || body[i] >= 0x80 {
		return false
	}
	cn := int(body[i])
	i++
	if i+cn+8+8 != len(body) {
		return false
	}
	var code string
	if cn != 0 {
		raw := body[i : i+cn]
		if intern != nil {
			if s, hit := intern[string(raw)]; hit {
				code = s
			} else {
				code = string(raw)
				intern[code] = code
			}
		} else {
			code = string(raw)
		}
	}
	i += cn
	bid := math.Float64frombits(binary.LittleEndian.Uint64(body[i:]))
	cost := math.Float64frombits(binary.LittleEndian.Uint64(body[i+8:]))
	*e = ProbeRecord{
		At:            time.Unix(sec, int64(nsec)).UTC(),
		Market:        mkt,
		Kind:          ProbeKind(kind),
		Trigger:       Trigger(trigger),
		TriggerMarket: trig,
		SourceKind:    ProbeKind(srcKind),
		SpikeRatio:    spikeRatio,
		PriceRatio:    priceRatio,
		Rejected:      rejected,
		Code:          code,
		Bid:           bid,
		Cost:          cost,
	}
	return true
}

// decodeWALEntry decodes one frame body into e, in place — the decode
// loops reuse one entry across millions of frames rather than copying
// the ~400-byte union through every call (only the record of e.typ is
// meaningful; stale bytes of the other arms are never read). The price
// record carries no market of its own: the caller supplies the owning
// market, from the snapshot index or the log's run header. intern,
// when non-nil, deduplicates decoded strings across records (see
// walReader.intern).
func decodeWALEntry(e *walEntry, typ walRecordType, body []byte, id market.SpotID, intern map[string]string) error {
	r := walReader{data: body, intern: intern}
	e.typ = typ
	switch typ {
	case walProbe:
		if decodeProbeFast(&e.probe, body, id, intern) {
			// Fully parsed, fully consumed, market == id by
			// construction — the post-switch checks are already met.
			return nil
		}
		e.probe = ProbeRecord{
			At:            r.instant(),
			Market:        r.marketExpect(id),
			Kind:          ProbeKind(r.varint()),
			Trigger:       Trigger(r.varint()),
			TriggerMarket: r.marketExpect(id),
			SourceKind:    ProbeKind(r.varint()),
			SpikeRatio:    r.float(),
			PriceRatio:    r.float(),
			Rejected:      r.boolean(),
			Code:          r.str(),
			Bid:           r.float(),
			Cost:          r.float(),
		}
	case walSpike:
		e.spike = SpikeEvent{
			At:     r.instant(),
			Market: r.marketExpect(id),
			Price:  r.float(),
			Ratio:  r.float(),
			Probed: r.boolean(),
		}
	case walBidSpread:
		e.bidSpread = BidSpreadRecord{
			At:        r.instant(),
			Market:    r.marketExpect(id),
			Published: r.float(),
			Intrinsic: r.float(),
			Attempts:  int(r.varint()),
		}
	case walRevocation:
		e.revocation = RevocationRecord{
			At:     r.instant(),
			Market: r.marketExpect(id),
			Bid:    r.float(),
			Held:   time.Duration(r.varint()),
		}
	case walPrice:
		e.price = PricePoint{At: r.instant(), Price: r.float()}
	default:
		return fmt.Errorf("%w: unknown record type %d", ErrWALCorrupt, typ)
	}
	if err := r.end(); err != nil {
		return err
	}
	// A shard's frames must only hold their own market's records; a framed
	// record claiming another market is corruption, not data.
	switch typ {
	case walProbe:
		if e.probe.Market != id {
			return fmt.Errorf("%w: record market %v in log of %v", ErrWALCorrupt, e.probe.Market, id)
		}
	case walSpike:
		if e.spike.Market != id {
			return fmt.Errorf("%w: record market %v in log of %v", ErrWALCorrupt, e.spike.Market, id)
		}
	case walBidSpread:
		if e.bidSpread.Market != id {
			return fmt.Errorf("%w: record market %v in log of %v", ErrWALCorrupt, e.bidSpread.Market, id)
		}
	case walRevocation:
		if e.revocation.Market != id {
			return fmt.Errorf("%w: record market %v in log of %v", ErrWALCorrupt, e.revocation.Market, id)
		}
	}
	return nil
}

// decodeFrames streams a sequence of record frames — a snapshot section, or
// one run of a market's log frames — through fn, one
// decoded record at a time and without ever collecting a slice: the only
// per-record state is the stack-allocated walEntry. It returns how many
// records it decoded; err is nil only when data decoded completely.
// intern, when non-nil, deduplicates decoded strings across records.
func decodeFrames(data []byte, id market.SpotID, intern map[string]string, fn func(*walEntry)) (count uint64, err error) {
	var e walEntry
	for off := 0; off < len(data); {
		typ, body, n, ferr := decodeWALFrame(data[off:])
		if ferr != nil {
			return count, ferr
		}
		if derr := decodeWALEntry(&e, typ, body, id, intern); derr != nil {
			return count, derr
		}
		fn(&e)
		count++
		off += n
	}
	return count, nil
}
