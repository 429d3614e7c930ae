package store

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"spotlight/internal/market"
)

var (
	fuzzMarket      = market.SpotID{Zone: "us-east-1a", Type: "m3.large", Product: market.ProductLinux}
	fuzzOtherMarket = market.SpotID{Zone: "eu-west-1b", Type: "c3.xlarge", Product: market.ProductWindows}
)

// fuzzSegment builds a small valid log file image for the seed corpus:
// two markets in three runs, every record family.
func fuzzSegment() []byte {
	at := time.Date(2015, 9, 1, 0, 0, 0, 0, time.UTC)
	buf := []byte(walMagic)
	buf = appendRunHeader(buf, fuzzMarket, 0)
	buf = frameOf(buf, ProbeRecord{
		At: at, Market: fuzzMarket, Kind: ProbeOnDemand, Trigger: TriggerSpike,
		TriggerMarket: fuzzMarket, SourceKind: ProbeSpot,
		SpikeRatio: 1.5, PriceRatio: 1.2, Rejected: true, Code: "ICE", Bid: 0.3, Cost: 0.02,
	})
	buf = frameOf(buf, SpikeEvent{At: at.Add(time.Minute), Market: fuzzMarket, Price: 0.9, Ratio: 1.8, Probed: true})
	buf = appendRunHeader(buf, fuzzOtherMarket, 0)
	buf = frameOf(buf, BidSpreadRecord{At: at.Add(2 * time.Minute), Market: fuzzOtherMarket, Published: 0.5, Intrinsic: 0.31, Attempts: 6})
	buf = appendRunHeader(buf, fuzzMarket, 2)
	buf = frameOf(buf, RevocationRecord{At: at.Add(3 * time.Minute), Market: fuzzMarket, Bid: 1.1, Held: time.Hour})
	buf = frameOf(buf, PricePoint{At: at.Add(4 * time.Minute), Price: 0.27})
	return buf
}

// fuzzMiscountedSegment is fuzzSegment with one more run whose header
// skips a record of its shard; the returned offset is where that header
// starts, which is where the valid prefix must end.
func fuzzMiscountedSegment() ([]byte, int) {
	buf := fuzzSegment()
	valid := len(buf)
	buf = appendRunHeader(buf, fuzzOtherMarket, 2) // the shard holds 1
	buf = frameOf(buf, PricePoint{At: time.Date(2015, 9, 1, 0, 5, 0, 0, time.UTC), Price: 0.4})
	return buf, valid
}

// frameOf appends r's frame naming r's own market, as a writer that did
// not route it through a shard would.
func frameOf[R record](b []byte, r R) []byte {
	var id market.SpotID
	if _, m := fields(&r); m != nil {
		id = *m
	}
	return encode(b, &r, id)
}

// decodeLog runs both halves of log recovery over one file image, against
// no snapshot: the serial scan, then every market's runs through the
// record decoder (markets in ID order). It returns how many records
// decoded; validLen is the scan's.
func decodeLog(data []byte) (records uint64, validLen int, err error) {
	r := newRecovery(New())
	validLen, err = r.scanLog("log", data)
	for _, t := range r.sorted() {
		t.run("", nil)
		records += t.sh.gen.Load()
		if t.err != nil {
			return records, validLen, t.err
		}
	}
	return records, validLen, err
}

// TestLogRunsMustContinueTheirShard: the serial scan accepts a log whose
// run headers count their shards' records exactly, and ends the valid
// prefix at the first header that does not.
func TestLogRunsMustContinueTheirShard(t *testing.T) {
	records, validLen, err := decodeLog(fuzzSegment())
	if err != nil || validLen != len(fuzzSegment()) || records != 5 {
		t.Fatalf("valid log: %d records, valid prefix %d of %d, err %v", records, validLen, len(fuzzSegment()), err)
	}
	bad, want := fuzzMiscountedSegment()
	records, validLen, err = decodeLog(bad)
	if !errors.Is(err, ErrWALCorrupt) || validLen != want || records != 5 {
		t.Fatalf("miscounted run: %d records, valid prefix %d (want %d), err %v", records, validLen, want, err)
	}
	// A record frame no run header introduces belongs to no shard.
	orphan := frameOf([]byte(walMagic), PricePoint{At: time.Unix(0, 0), Price: 1})
	if _, validLen, err = decodeLog(orphan); !errors.Is(err, ErrWALCorrupt) || validLen != len(walMagic) {
		t.Fatalf("headerless frame: valid prefix %d, err %v", validLen, err)
	}
}

// FuzzWALDecode feeds arbitrary bytes to log recovery's decoders: they
// must return records plus an error position, never panic; the reported
// valid prefix must actually be a prefix of the input that scans clean,
// so it can never reach past the first bad frame.
func FuzzWALDecode(f *testing.F) {
	valid := fuzzSegment()
	miscounted, _ := fuzzMiscountedSegment()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])                                            // torn tail
	f.Add([]byte(walMagic))                                                // empty log file
	f.Add([]byte{})                                                        // no header
	f.Add([]byte("SPOTWAL2\x00\x00"))                                      // short frame header
	f.Add(append([]byte(nil), valid[:len(walMagic)+walFrameHeader+60]...)) // mid-frame cut
	corrupt := append([]byte(nil), valid...)
	corrupt[len(walMagic)+10] ^= 0xff // checksum mismatch
	f.Add(corrupt)
	f.Add(miscounted)                                                                      // a run that skips a record
	f.Add(frameOf([]byte(walMagic), PricePoint{Price: 1}))                                 // a frame before any run header
	f.Add(appendRunHeader(append([]byte(nil), valid...), fuzzOtherMarket, 1))              // a run header at the tail
	f.Add(frameOf(appendRunHeader([]byte(walMagic), fuzzMarket, 0), PricePoint{}))         // decodes under its header
	f.Add(frameOf(appendRunHeader([]byte(walMagic), fuzzMarket, 0), SpikeEvent{Ratio: 2})) // another market's record under the header

	f.Fuzz(func(t *testing.T, data []byte) {
		records, validLen, err := decodeLog(data)
		if validLen < 0 || validLen > len(data) {
			t.Fatalf("valid prefix %d outside input of %d bytes", validLen, len(data))
		}
		if err == nil && validLen != len(data) {
			t.Fatalf("clean decode stopped at %d of %d bytes", validLen, len(data))
		}
		if validLen == 0 {
			return // not a log file at all
		}
		// The valid prefix must scan clean on its own, to the same length.
		r := newRecovery(New())
		if againLen, err2 := r.scanLog("log", data[:validLen]); err2 != nil || againLen != validLen {
			t.Fatalf("re-scan of the %d-byte valid prefix: %d, %v", validLen, againLen, err2)
		}
		if err == nil {
			// And a cleanly decoded log must re-decode identically.
			again, _, err2 := decodeLog(data[:validLen])
			if err2 != nil || again != records {
				t.Fatalf("re-decode of valid prefix diverged: %v, %d vs %d records", err2, again, records)
			}
		}
	})
}

// fuzzSnapSeq is the SEQ every fuzzed image is read as: the golden
// fixture's, so its snapshot file can seed the corpus.
const fuzzSnapSeq = 2

// fuzzSnapshot builds a small valid snapshot image for the seed corpus:
// two sections, every record family.
func fuzzSnapshot(f *testing.F) []byte {
	f.Helper()
	at := time.Date(2015, 9, 1, 0, 0, 0, 0, time.UTC)
	s := New()
	s.AppendProbe(ProbeRecord{
		At: at, Market: fuzzMarket, Kind: ProbeOnDemand, Trigger: TriggerSpike,
		TriggerMarket: fuzzMarket, SourceKind: ProbeSpot,
		SpikeRatio: 1.5, PriceRatio: 1.2, Rejected: true, Code: "ICE", Bid: 0.3, Cost: 0.02,
	})
	s.AppendSpike(SpikeEvent{At: at.Add(time.Minute), Market: fuzzMarket, Price: 0.9, Ratio: 1.8, Probed: true})
	s.AppendBidSpread(BidSpreadRecord{At: at.Add(2 * time.Minute), Market: fuzzOtherMarket, Published: 0.5, Intrinsic: 0.31, Attempts: 6})
	s.AppendRevocation(RevocationRecord{At: at.Add(3 * time.Minute), Market: fuzzMarket, Bid: 1.1, Held: time.Hour})
	s.RecordPrice(fuzzOtherMarket, PricePoint{At: at.Add(4 * time.Minute), Price: 0.27})
	var buf bytes.Buffer
	if _, err := encodeSnapshot(&buf, fuzzSnapSeq, s.captureAll()); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// decodeSnapshot loads a snapshot image the way Open does — footer and
// index, then every section into its shard through the record decoder —
// serially, and returns the image of what loaded.
func decodeSnapshot(data []byte, intern map[string]string) ([]byte, error) {
	sections, err := parseSnapshot(data, fuzzSnapSeq)
	if err != nil {
		return nil, err
	}
	r := newRecovery(New())
	for _, sec := range sections {
		r.task(sec.id).snap = sec
	}
	var captures []shardCapture
	for _, t := range r.sorted() {
		if t.run("", intern); t.err != nil {
			return nil, t.err
		}
		captures = append(captures, t.sh.capture())
	}
	var image bytes.Buffer
	_, err = encodeSnapshot(&image, fuzzSnapSeq, captures)
	return image.Bytes(), err
}

// FuzzSnapshotV2Decode feeds arbitrary bytes to the snapshot file loader:
// malformed input must produce an error, never a panic or an allocation
// sized by a count the input claims — a snapshot is complete or damaged,
// there is no torn-tail salvage — and an image that loads must load
// identically again.
func FuzzSnapshotV2Decode(f *testing.F) {
	valid := fuzzSnapshot(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])              // cut inside the footer
	f.Add(valid[:len(valid)-snapFooterSize]) // no footer
	f.Add(valid[:len(snapMagic)+40])         // cut inside a section
	f.Add([]byte(snapMagic))                 // header only
	f.Add([]byte{})                          // nothing
	f.Add(fuzzSegment())                     // a log file where a snapshot belongs
	// Well-formed trailers: an empty store's snapshot, a section and a
	// record count far past the file, an index offset far past the file.
	empty := []byte(snapMagic)
	f.Add(snapshotImage(empty, nil, uint64(len(empty)), fuzzSnapSeq))
	f.Add(snapshotImage(empty, []snapIndexEntry{{fuzzMarket.String(), 8, 1 << 62, 1 << 62}}, 8, fuzzSnapSeq))
	f.Add(snapshotImage(empty, nil, 1<<63, fuzzSnapSeq))
	corrupt := append([]byte(nil), valid...)
	corrupt[len(snapMagic)+6] ^= 0xff // a frame's checksum mismatch
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := decodeSnapshot(data, nil)
		if err != nil {
			return
		}
		again, err := decodeSnapshot(data, make(map[string]string))
		if err != nil || !bytes.Equal(again, loaded) {
			t.Fatalf("re-load diverged: %v\n got: %q\nwant: %q", err, again, loaded)
		}
	})
}
