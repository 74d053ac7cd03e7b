package wal

// Fuzz targets for the two decoders that read bytes from disk and from
// the replication stream: the record framing (parseRecord, behind the
// torn-tail scan of OpenLog and the replication reader) and the batch
// payload codec (DecodeBatch, behind recovery and replica replay).

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzParseRecord scans arbitrary bytes as a log the way OpenLog does.
// It must never panic or step past the data, it may accept a record only
// when its checksum matches, and every accepted record must be exactly
// the framing appendRecord writes for its seq and payload.
func FuzzParseRecord(f *testing.F) {
	var log []byte
	for i, b := range codecBatches() {
		rec := appendRecord(nil, uint64(i+1), encodeBatch(nil, b.Relation, b.Tuples))
		f.Add(rec)
		f.Add(rec[:len(rec)-1]) // torn tail
		log = append(log, rec...)
	}
	f.Add(log)
	f.Add(appendRecord(nil, 1<<40, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		for off := 0; off < len(data); {
			seq, payload, next, ok := parseRecord(data[off:])
			if !ok {
				return
			}
			rec := data[off:]
			if next < recHeaderSize || next > len(rec) {
				t.Fatalf("record at %d: next %d outside [%d, %d]", off, next, recHeaderSize, len(rec))
			}
			if Checksum(seq, payload) != binary.LittleEndian.Uint32(rec[4:]) {
				t.Fatalf("record at %d accepted with a checksum mismatch", off)
			}
			if want := appendRecord(nil, seq, payload); !bytes.Equal(rec[:next], want) {
				t.Fatalf("record at %d: accepted bytes %x, appendRecord frames %x", off, rec[:next], want)
			}
			off += next
		}
	})
}

// FuzzDecodeBatch feeds arbitrary payloads to DecodeBatch. It must never
// panic, and a payload it accepts must be the one encoding of its batch:
// re-encoding the batch gives back the same bytes.
func FuzzDecodeBatch(f *testing.F) {
	for _, b := range codecBatches() {
		enc := encodeBatch(nil, b.Relation, b.Tuples)
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		b, err := DecodeBatch(payload)
		if err != nil {
			return
		}
		if got := encodeBatch(nil, b.Relation, b.Tuples); !bytes.Equal(got, payload) {
			t.Fatalf("accepted payload %x re-encodes to %x", payload, got)
		}
	})
}
