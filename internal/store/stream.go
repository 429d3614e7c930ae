package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"spotlight/internal/market"
)

// Follow streams. A follower rebuilds its leader's store from what recovery
// reads — a snapshot image, then log runs — sent over the wire and applied
// by the recovery rules through appendRound, so a durable follower logs the
// same frames. A stream is the log's CRC frames (wal.go): a position frame
// {salt, seq, gen, clock}, where the stream starts, opens it; a snapshot
// image (snapshot.go) split over chunk frames may follow; then run headers
// and record frames, one run per append round, and after every catch-up a
// position whose Token resumes a follower that applied everything before it.
// The leader cuts all of it from memory (captureAll, the change feed), so
// durable and in-memory leaders serve the same stream, reading no file.
//
// A record frame applies iff its ordinal equals the local shard's record
// count; a lower one is held already and skipped; a higher one is a gap
// (ErrStreamGap) only a snapshot repairs. Snapshot sections are grouped by
// family, so each family skips as many records as the local shard holds.

// Position is a point in a leader's history: the salt naming the history,
// the change feed's sequence number and the store's global generation
// there, and the leader's clock when the frame was written.
type Position struct {
	Salt, Seq, Gen uint64
	Clock          time.Time
}

// Token renders p as a /v2/watch resume token (Last-Event-ID).
func (p Position) Token() string {
	return fmt.Sprintf("%x-%x-%x-%x", p.Salt, p.Seq, p.Gen, uint64(p.Clock.UnixNano()))
}

// snapChunk bounds the share of a snapshot image one chunk frame carries.
const snapChunk = 64 << 10

// StreamWriter writes one follow stream. Not safe for concurrent use.
type StreamWriter struct {
	w   io.Writer
	buf []byte
	pos Position // how far the stream has been written
	// The open run: its market, its round (the events' generation) and the
	// ordinal that continues it.
	id        market.SpotID
	gen, next uint64
}

// NewStreamWriter writes a follow stream to w, starting at position pos.
func NewStreamWriter(w io.Writer, pos Position) *StreamWriter {
	return &StreamWriter{w: w, pos: pos}
}

// Position writes how far the stream has been written, at the leader clock.
func (sw *StreamWriter) Position(clock time.Time) error {
	sw.pos.Clock = clock
	return sw.write(appendWALFrame(sw.buf[:0], walPosition, func(b []byte) []byte {
		b = appendUvarint(appendUvarint(appendUvarint(b, sw.pos.Salt), sw.pos.Seq), sw.pos.Gen)
		return appendTime(b, clock)
	}))
}

// Snapshot writes the store's whole state, captured now, as one image, and
// the position after it.
func (sw *StreamWriter) Snapshot(s *Store, clock time.Time) error {
	if _, err := encodeSnapshot(chunkWriter{sw}, 0, s.captureAll()); err != nil {
		return err
	}
	return sw.Position(clock)
}

// chunkWriter frames a snapshot image into chunk frames.
type chunkWriter struct{ sw *StreamWriter }

func (c chunkWriter) Write(p []byte) (int, error) {
	b := c.sw.buf[:0]
	for rest := p; len(rest) > 0; {
		part := rest[:min(len(rest), snapChunk)]
		rest = rest[len(part):]
		b = appendWALFrame(b, walSnapChunk, func(b []byte) []byte { return append(b, part...) })
	}
	return len(p), c.sw.write(b)
}

// Events writes the record events among evs as log runs, one Write per
// append round. Outage transitions and the lagged marker carry nothing a
// follower applies.
func (sw *StreamWriter) Events(evs []Event) error {
	b := sw.buf[:0]
	for i := range evs {
		ev := &evs[i]
		if sw.pos.Seq, sw.pos.Gen = ev.Seq, ev.Gen; ev.Kind >= EventOutageOpen {
			continue
		}
		if ev.Market != sw.id || ev.Gen != sw.gen || ev.Ordinal != sw.next {
			if err := sw.write(b); err != nil {
				return err
			}
			b = appendRunHeader(sw.buf[:0], ev.Market, ev.Ordinal)
			sw.id, sw.gen = ev.Market, ev.Gen
		}
		sw.next = ev.Ordinal + 1
		b = ev.frame(b)
	}
	return sw.write(b)
}

func (sw *StreamWriter) write(b []byte) (err error) {
	if sw.buf = b; len(b) > 0 {
		_, err = sw.w.Write(b)
	}
	return err
}

// ErrStreamGap reports a follow-stream record past the local shard's count:
// the records between are missing, and only a snapshot brings them.
var ErrStreamGap = errors.New("store: follow stream skips records this store does not hold")

// Follower hears how a follow stream unfolds: Hello gets the opening
// position before anything applies (an error refuses the stream), Snapshot
// precedes an image, and Position gets every later position once all before
// it applied, with the records applied and skipped as held since the last.
type Follower interface {
	Hello(Position) error
	Snapshot() error
	Position(p Position, applied, skipped uint64) error
}

// Follow applies one follow stream to s, which must have no other writer,
// until the stream ends (io.EOF at a frame boundary), a frame is damaged, a
// record leaves a gap (ErrStreamGap) or goes back in time (ErrBackInTime,
// not applied), or f refuses; it returns why.
func (s *Store) Follow(r io.Reader, f Follower) (err error) {
	var (
		fr                     = frameReader{r: bufio.NewReaderSize(r, snapChunk)}
		id                     market.SpotID // the open run's market
		open, inImage          bool
		next, have             uint64 // the run's next ordinal; its shard's record count
		image                  []byte
		applied, skipped, took uint64
		intern                 = make(map[string]string)
	)
	for first := true; err == nil; first = false {
		typ, body, rerr := fr.next()
		if err = rerr; err == nil && inImage && typ != walSnapChunk {
			if err = f.Snapshot(); err == nil {
				took, err = s.applySnapshot(image, intern)
				applied += took
			}
			image, inImage = nil, false
		}
		switch {
		case err != nil:
		case first && typ != walPosition:
			err = fmt.Errorf("%w: the stream opens with frame type %d", ErrWALCorrupt, typ)
		case typ == walPosition:
			r := walReader{data: body}
			p := Position{Salt: r.uvarint(), Seq: r.uvarint(), Gen: r.uvarint(), Clock: r.instant()}
			if err = r.end(); err == nil && first {
				err = f.Hello(p)
			} else if err == nil {
				err = f.Position(p, applied, skipped)
			}
			applied, skipped = 0, 0
		case typ == walSnapChunk:
			open, inImage = false, true
			image = append(image, body...)
		case typ == walRunHeader:
			if id, next, err = decodeRunHeader(body, intern); err == nil {
				open, have = true, s.Generation(id)
			}
		case !isRecord(typ):
			err = unknownFrame(typ)
		case !open:
			err = fmt.Errorf("%w: record frame before any run header", ErrWALCorrupt)
		case next > have:
			err = fmt.Errorf("%w: record %d of %v, this store holds %d", ErrStreamGap, next, id, have)
		case next < have: // held already: decoded, not applied
			err = codecs[typ].follow(body, id, intern, nil)
			skipped, next = skipped+1, next+1
		default:
			err = codecs[typ].follow(body, id, intern, s)
			applied, have, next = applied+1, have+1, next+1
		}
	}
	return err
}

// applySnapshot lands the records of a snapshot image this store does not
// hold yet — per section and family, all but as many as the local shard
// holds — and returns how many. The whole image is checked first, so a
// damaged one applies nothing; a record that goes back in time is refused
// and ends the apply (ErrBackInTime).
func (s *Store) applySnapshot(image []byte, intern map[string]string) (applied uint64, err error) {
	sections, err := parseSnapshot(image, 0)
	for i := 0; err == nil && i < len(sections); i++ {
		id := sections[i].id
		err = decodeSection(sections[i], func(typ walRecordType, body []byte) error {
			if !isRecord(typ) {
				return unknownFrame(typ)
			}
			return codecs[typ].follow(body, id, intern, nil)
		})
	}
	for i := 0; err == nil && i < len(sections); i++ {
		id := sections[i].id
		var held frameCounts
		if sh := s.lookup(id); sh != nil {
			c := sh.capture()
			for typ := walProbe; typ <= walPrice; typ++ {
				held[typ] = codecs[typ].rows(&c)
			}
		}
		err = decodeSection(sections[i], func(typ walRecordType, body []byte) error { // decodes: checked above
			if held[typ]--; held[typ] >= 0 {
				return nil
			}
			applied++
			return codecs[typ].follow(body, id, intern, s)
		})
	}
	return applied, err
}

// frameReader reads a stream's frames; a body is valid until the next read.
type frameReader struct {
	r   io.Reader
	buf []byte
}

func (fr *frameReader) next() (walRecordType, []byte, error) {
	fr.buf = slices.Grow(fr.buf[:0], walFrameHeader)[:walFrameHeader]
	_, err := io.ReadFull(fr.r, fr.buf)
	// A length decodeWALFrame refuses is refused before anything is read.
	if n := int(binary.LittleEndian.Uint32(fr.buf)); err == nil && n > 0 && n <= maxWALPayload {
		fr.buf = slices.Grow(fr.buf, n)[:walFrameHeader+n]
		if _, err = io.ReadFull(fr.r, fr.buf[walFrameHeader:]); err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
	}
	if err != nil {
		return 0, nil, err
	}
	typ, body, _, err := decodeWALFrame(fr.buf)
	return typ, body, err
}
