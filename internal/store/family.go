package store

import (
	"fmt"
	"time"

	"spotlight/internal/market"
)

// Record family code. A shard logs five kinds of row — probes, spikes, bid
// spreads, revocations and prices — and this file is the one place that
// tells them apart. A record type supplies only what differs: its frame
// body (encode and decode, wal.go) and how it lands in its shard's logs
// (land, shard.go), and a row type with its conversion back
// (columns.go). One append round (appendRows), one codec table indexed
// by frame type (codecs), and the recovery, follow and snapshot paths built
// on them serve all five.
//
// Shared code reaches a record's methods through the type switches below,
// never through a method constraint: a call through a generic dictionary
// hides its callee from escape analysis, which then moves every record,
// event and round delta it touches to the heap.

// record is a row type a shard logs.
type record interface {
	ProbeRecord | SpikeEvent | BidSpreadRecord | RevocationRecord | PricePoint
}

// fields returns pointers to r's instant and market; a price names no
// market (nil).
func fields[R record](r *R) (*time.Time, *market.SpotID) {
	switch r := any(r).(type) {
	case *ProbeRecord:
		return &r.At, &r.Market
	case *SpikeEvent:
		return &r.At, &r.Market
	case *BidSpreadRecord:
		return &r.At, &r.Market
	case *RevocationRecord:
		return &r.At, &r.Market
	case *PricePoint:
		return &r.At, nil
	}
	panic("store: not a record")
}

// encode appends r's frame, naming market id: the market of the shard that
// holds r, whatever r's own Market says.
func encode[R record](b []byte, r *R, id market.SpotID) []byte {
	switch r := any(r).(type) {
	case *ProbeRecord:
		return r.encode(b, id)
	case *SpikeEvent:
		return r.encode(b, id)
	case *BidSpreadRecord:
		return r.encode(b, id)
	case *RevocationRecord:
		return r.encode(b, id)
	case *PricePoint:
		return r.encode(b, id)
	}
	return b
}

// decode reads one frame body of r's family into r. The frame belongs to
// market id's shard, whose frames only hold its own market's records: one
// naming another market is corruption, not data. intern, when non-nil,
// deduplicates decoded strings across records (see walReader.intern).
func decode[R record](r *R, body []byte, id market.SpotID, intern map[string]string) error {
	rd := walReader{data: body, intern: intern}
	switch r := any(r).(type) {
	case *ProbeRecord:
		r.decode(&rd, id)
	case *SpikeEvent:
		r.decode(&rd, id)
	case *BidSpreadRecord:
		r.decode(&rd, id)
	case *RevocationRecord:
		r.decode(&rd, id)
	case *PricePoint:
		r.decode(&rd)
	}
	if err := rd.end(); err != nil {
		return err
	}
	if _, m := fields(r); m != nil && *m != id {
		return fmt.Errorf("%w: record market %v in log of %v", ErrWALCorrupt, *m, id)
	}
	return nil
}

// land puts r into sh's logs — under the shard lock, or in the recovery
// worker that owns sh — and counts it into the round's delta: one more
// record of the shard, plus what the rollups fold.
func land[R record](sh *shard, r *R, d *rollupDelta) {
	sh.gen.Add(1)
	d.records++
	t, _ := fields(r)
	at := stamp(*t)
	switch r := any(r).(type) {
	case *ProbeRecord:
		r.land(sh, at, d)
	case *SpikeEvent:
		r.land(sh, at, d)
	case *BidSpreadRecord:
		r.land(sh, at)
	case *RevocationRecord:
		r.land(sh, at)
	case *PricePoint:
		r.land(sh, at)
	}
}

// recordEvents copies a round's records into feed events, built in place
// in d.events. Callers reuse their record buffers across rounds, so events
// must not alias them; each copy reads as its shard serves it, under the
// shard's market and at its canonical instant.
func recordEvents[R record](sh *shard, rs []R, d *rollupDelta) {
	cp := append([]R(nil), rs...)
	d.events = make([]Event, len(cp))
	id := sh.id()
	for i := range cp {
		at, m := fields(&cp[i])
		*at = canonical(*at)
		if m != nil {
			*m = id
		}
		ev := &d.events[i]
		ev.Market, ev.At = id, *at
		switch r := any(&cp[i]).(type) {
		case *ProbeRecord:
			ev.Kind, ev.Probe = EventProbe, r
		case *SpikeEvent:
			ev.Kind, ev.Spike = EventSpike, r
		case *BidSpreadRecord:
			ev.Kind, ev.BidSpread = EventBidSpread, r
		case *RevocationRecord:
			ev.Kind, ev.Revocation = EventRevocation, r
		case *PricePoint:
			ev.Kind, ev.Price = EventPrice, r
		}
	}
}

// frame appends the frame of the record ev carries; outage transitions and
// the lagged marker carry none.
func (ev *Event) frame(b []byte) []byte {
	switch ev.Kind {
	case EventProbe:
		return ev.Probe.encode(b, ev.Market)
	case EventSpike:
		return ev.Spike.encode(b, ev.Market)
	case EventBidSpread:
		return ev.BidSpread.encode(b, ev.Market)
	case EventRevocation:
		return ev.Revocation.encode(b, ev.Market)
	case EventPrice:
		return ev.Price.encode(b, ev.Market)
	}
	return b
}

// codec is what the shared paths know of one family; codecs holds one per
// record frame type, in the order a snapshot section lists each family.
type codec struct {
	// replay decodes a frame body naming market id (see decode) and lands
	// the record in sh, counted into d: recovery publishes d itself. It
	// returns the record's instant, and ErrBackInTime for a record stamped
	// before its family's newest row in sh, which it does not land.
	replay func(body []byte, id market.SpotID, intern map[string]string, sh *shard, d *rollupDelta) (time.Time, error)
	// follow decodes a frame body the same way and, with s set, appends
	// the record to s as an append round of its own; a refused round is
	// its error.
	follow func(body []byte, id market.SpotID, intern map[string]string, s *Store) error
	// reserve grows sh's log of the family for n more rows.
	reserve func(sh *shard, n int)
	// rows is how many rows of the family c holds; frames appends each
	// row's frame to b in turn, handing it to put, which returns the buffer
	// the next one goes into.
	rows   func(c *shardCapture) int
	frames func(b []byte, c *shardCapture, put func([]byte) []byte) []byte
}

var codecs = [walPrice + 1]codec{
	walProbe: {
		replay:  replay[ProbeRecord],
		follow:  follow[ProbeRecord],
		reserve: func(sh *shard, n int) { ensure(&sh.probes).reserve(n) },
		rows:    func(c *shardCapture) int { return len(c.probes) },
		frames: func(b []byte, c *shardCapture, put func([]byte) []byte) []byte {
			for _, e := range c.probes {
				b = put(probeOf(e, c.owner).encode(b, c.id))
			}
			return b
		},
	},
	walSpike: {
		replay:  replay[SpikeEvent],
		follow:  follow[SpikeEvent],
		reserve: func(sh *shard, n int) { ensure(&sh.spikes).reserve(n) },
		rows:    func(c *shardCapture) int { return len(c.spikes) },
		frames: func(b []byte, c *shardCapture, put func([]byte) []byte) []byte {
			for _, e := range c.spikes {
				b = put(spikeOf(e, c.owner).encode(b, c.id))
			}
			return b
		},
	},
	walBidSpread: {
		replay:  replay[BidSpreadRecord],
		follow:  follow[BidSpreadRecord],
		reserve: func(sh *shard, n int) { ensure(&sh.bidSpreads).reserve(n) },
		rows:    func(c *shardCapture) int { return len(c.bidSpreads) },
		frames: func(b []byte, c *shardCapture, put func([]byte) []byte) []byte {
			for _, e := range c.bidSpreads {
				b = put(bidSpreadOf(e, c.owner).encode(b, c.id))
			}
			return b
		},
	},
	walRevocation: {
		replay:  replay[RevocationRecord],
		follow:  follow[RevocationRecord],
		reserve: func(sh *shard, n int) { ensure(&sh.revocations).reserve(n) },
		rows:    func(c *shardCapture) int { return len(c.revocations) },
		frames: func(b []byte, c *shardCapture, put func([]byte) []byte) []byte {
			for _, e := range c.revocations {
				b = put(revocationOf(e, c.owner).encode(b, c.id))
			}
			return b
		},
	},
	walPrice: {
		replay:  replay[PricePoint],
		follow:  follow[PricePoint],
		reserve: func(sh *shard, n int) { sh.prices.reserve(n) },
		rows:    func(c *shardCapture) int { return c.prices.len() },
		frames: func(b []byte, c *shardCapture, put func([]byte) []byte) []byte {
			var cur priceCursor
			for k := 0; k <= len(c.prices.index); k++ {
				for _, e := range c.prices.run(&cur, k) {
					b = put(priceOf(e, c.owner).encode(b, c.id))
				}
			}
			return b
		},
	},
}

// isRecord reports whether frame type typ frames a record; unknownFrame is
// a reader's error for one that does not.
func isRecord(typ walRecordType) bool { return walProbe <= typ && typ <= walPrice }

func unknownFrame(typ walRecordType) error {
	return fmt.Errorf("%w: unknown frame type %d", ErrWALCorrupt, typ)
}

func replay[R record](body []byte, id market.SpotID, intern map[string]string, sh *shard, d *rollupDelta) (time.Time, error) {
	var r [1]R
	err := decode(&r[0], body, id, intern)
	if err == nil {
		err = inOrder(sh.store, id, newest[R](sh), r[:])
	}
	if err == nil {
		land(sh, &r[0], d)
	}
	at, _ := fields(&r[0])
	return *at, err
}

func follow[R record](body []byte, id market.SpotID, intern map[string]string, s *Store) error {
	var r [1]R
	err := decode(&r[0], body, id, intern)
	if err == nil && s != nil {
		err = appendRows(s.shardFor(id), r[:])
	}
	return err
}
