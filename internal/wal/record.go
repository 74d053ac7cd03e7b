package wal

// Record framing and the insert-batch payload codec.
//
// One log record is
//
//	uint32  length of seq ‖ payload (little endian): 8 + len(payload)
//	uint32  CRC32C over seq ‖ payload
//	uint64  sequence number of the batch (strictly increasing)
//	bytes   payload
//
// The length prefix bounds the read, the checksum rejects torn or
// corrupted bytes, and the sequence number lets replay skip records a
// checkpoint already covers (after a crash between manifest commit and
// log truncation the old records are still on disk).
//
// The payload is a self-delimiting binary encoding of one insert batch:
//
//	relation name   uvarint length + bytes
//	tuple count     uvarint
//	arity           uvarint
//	values          per value: one kind byte, then
//	                  BaseConst  uvarint length + bytes
//	                  BaseNull   uvarint null ID
//	                  NumConst   8-byte little-endian IEEE-754 bits
//	                  NumNull    uvarint null ID
//
// Floats round-trip by bit pattern, so NaN payloads, -0 and infinities
// replay bit-identically — the recovery fuzz checks measures, which hash
// these bits.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/value"
)

// recHeaderSize is the fixed record prefix: length + crc + seq.
const recHeaderSize = 4 + 4 + 8

// maxRecordSize bounds one record so a corrupted length prefix cannot
// demand an absurd allocation during recovery.
const maxRecordSize = 64 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the CRC32C the log frames records with: computed over
// seq ‖ payload, exactly as appendRecord stores and parseRecord checks
// it. Replication re-verifies shipped records (and checkpoint files,
// bound to their covering seq) with the same function on both ends.
func Checksum(seq uint64, payload []byte) uint32 {
	var seqBuf [8]byte
	binary.LittleEndian.PutUint64(seqBuf[:], seq)
	crc := crc32.Checksum(seqBuf[:], castagnoli)
	return crc32.Update(crc, castagnoli, payload)
}

// DecodeBatch parses a WAL record payload into the insert batch it logs.
// Replicas decode shipped payloads with it before replaying; errors mean
// real corruption, since the checksum already vouched for the bytes.
func DecodeBatch(payload []byte) (Batch, error) { return decodeBatch(payload) }

// appendRecord frames seq+payload onto buf and returns the extended
// slice.
func appendRecord(buf []byte, seq uint64, payload []byte) []byte {
	n := len(buf)
	buf = append(buf, make([]byte, recHeaderSize)...)
	buf = append(buf, payload...)
	body := buf[n+8:] // seq ‖ payload, the checksummed region
	binary.LittleEndian.PutUint64(body[:8], seq)
	binary.LittleEndian.PutUint32(buf[n:], uint32(8+len(payload)))
	binary.LittleEndian.PutUint32(buf[n+4:], crc32.Checksum(body, castagnoli))
	return buf
}

// parseRecord decodes the record starting at data. ok is false when the
// bytes are torn or corrupted (short header, short body, length out of
// range, or checksum mismatch) — recovery truncates there. next is the
// offset just past the record when ok.
func parseRecord(data []byte) (seq uint64, payload []byte, next int, ok bool) {
	if len(data) < recHeaderSize {
		return 0, nil, 0, false
	}
	length := binary.LittleEndian.Uint32(data)
	if length < 8 || length > maxRecordSize {
		return 0, nil, 0, false
	}
	end := 8 + int(length)
	if len(data) < end {
		return 0, nil, 0, false
	}
	body := data[8:end]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[4:]) {
		return 0, nil, 0, false
	}
	return binary.LittleEndian.Uint64(body[:8]), body[8:], end, true
}

// Batch is one decoded insert batch: the unit of commit, of logging and
// of replay.
type Batch struct {
	Relation string
	Tuples   []value.Tuple
}

// value kind tags of the payload encoding. Independent of value.Kind's
// numeric values so the on-disk format survives refactors.
const (
	tagBaseConst = 0
	tagBaseNull  = 1
	tagNumConst  = 2
	tagNumNull   = 3
)

// encodeBatch appends the payload encoding of a batch onto buf.
func encodeBatch(buf []byte, rel string, tuples []value.Tuple) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(rel)))
	buf = append(buf, rel...)
	buf = binary.AppendUvarint(buf, uint64(len(tuples)))
	arity := 0
	if len(tuples) > 0 {
		arity = len(tuples[0])
	}
	buf = binary.AppendUvarint(buf, uint64(arity))
	for _, t := range tuples {
		for _, v := range t {
			switch v.Kind() {
			case value.BaseConst:
				s := v.Str()
				buf = append(buf, tagBaseConst)
				buf = binary.AppendUvarint(buf, uint64(len(s)))
				buf = append(buf, s...)
			case value.BaseNull:
				buf = append(buf, tagBaseNull)
				buf = binary.AppendUvarint(buf, uint64(v.NullID()))
			case value.NumConst:
				buf = append(buf, tagNumConst)
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Float()))
			case value.NumNull:
				buf = append(buf, tagNumNull)
				buf = binary.AppendUvarint(buf, uint64(v.NullID()))
			}
		}
	}
	return buf
}

// decodeBatch parses a payload produced by encodeBatch. Errors mean real
// corruption — the checksum already vouched for the bytes — so replay
// fails loudly instead of truncating. It accepts only encodeBatch's own
// encoding (minimal uvarints, arity 0 for an empty batch, null IDs that
// fit an int), so an accepted payload is the one encoding of its batch.
func decodeBatch(payload []byte) (Batch, error) {
	var b Batch
	rel, payload, err := decodeString(payload)
	if err != nil {
		return b, fmt.Errorf("wal: batch relation: %w", err)
	}
	b.Relation = rel
	count, payload, err := decodeUvarint(payload)
	if err != nil {
		return b, fmt.Errorf("wal: batch tuple count: %w", err)
	}
	arity, payload, err := decodeUvarint(payload)
	if err != nil {
		return b, fmt.Errorf("wal: batch arity: %w", err)
	}
	if count == 0 && arity != 0 {
		return b, fmt.Errorf("wal: empty batch claims arity %d", arity)
	}
	if count > uint64(len(payload)) || arity > uint64(len(payload))+1 {
		// Each tuple costs at least one byte per value; reject absurd
		// counts before allocating.
		return b, fmt.Errorf("wal: batch claims %d tuples of arity %d in %d bytes", count, arity, len(payload))
	}
	b.Tuples = make([]value.Tuple, count)
	for i := range b.Tuples {
		t := make(value.Tuple, arity)
		for j := range t {
			if len(payload) == 0 {
				return b, fmt.Errorf("wal: batch truncated at tuple %d", i)
			}
			tag := payload[0]
			payload = payload[1:]
			switch tag {
			case tagBaseConst:
				var s string
				if s, payload, err = decodeString(payload); err != nil {
					return b, fmt.Errorf("wal: tuple %d: %w", i, err)
				}
				t[j] = value.Base(s)
			case tagBaseNull:
				var id int
				if id, payload, err = decodeNullID(payload); err != nil {
					return b, fmt.Errorf("wal: tuple %d: %w", i, err)
				}
				t[j] = value.NullBase(id)
			case tagNumConst:
				if len(payload) < 8 {
					return b, fmt.Errorf("wal: tuple %d: short float", i)
				}
				t[j] = value.Num(math.Float64frombits(binary.LittleEndian.Uint64(payload)))
				payload = payload[8:]
			case tagNumNull:
				var id int
				if id, payload, err = decodeNullID(payload); err != nil {
					return b, fmt.Errorf("wal: tuple %d: %w", i, err)
				}
				t[j] = value.NullNum(id)
			default:
				return b, fmt.Errorf("wal: tuple %d: unknown value tag %d", i, tag)
			}
		}
		b.Tuples[i] = t
	}
	if len(payload) != 0 {
		return b, fmt.Errorf("wal: %d bytes trailing the batch", len(payload))
	}
	return b, nil
}

func decodeUvarint(data []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, fmt.Errorf("bad uvarint")
	}
	if n > 1 && data[n-1] == 0 {
		return 0, nil, fmt.Errorf("non-minimal uvarint")
	}
	return v, data[n:], nil
}

// decodeNullID decodes a null ID, which must fit a non-negative int.
func decodeNullID(data []byte) (int, []byte, error) {
	id, data, err := decodeUvarint(data)
	if err == nil && id > math.MaxInt {
		err = fmt.Errorf("null ID %d out of range", id)
	}
	return int(id), data, err
}

func decodeString(data []byte) (string, []byte, error) {
	n, data, err := decodeUvarint(data)
	if err != nil {
		return "", nil, err
	}
	if n > uint64(len(data)) {
		return "", nil, fmt.Errorf("string length %d exceeds %d remaining bytes", n, len(data))
	}
	return string(data[:n]), data[n:], nil
}
