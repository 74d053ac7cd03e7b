package wal

// Log-level tests: record framing round-trips, torn tails truncate at the
// first bad record and never past a good one, corruption is rejected by
// checksum, and injected write/sync faults surface as errors.

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/value"
)

func mustOpenLog(t *testing.T, fs FS, dir string) (*Log, []Record) {
	t.Helper()
	l, recs, err := OpenLog(fs, dir)
	if err != nil {
		t.Fatal(err)
	}
	return l, recs
}

func appendAll(t *testing.T, l *Log, payloads ...[]byte) {
	t.Helper()
	for i, p := range payloads {
		if err := l.Append(uint64(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), make([]byte, 4096)}
	var buf []byte
	for i, p := range payloads {
		buf = appendRecord(buf, uint64(i+100), p)
	}
	off := 0
	for i, want := range payloads {
		seq, payload, n, ok := parseRecord(buf[off:])
		if !ok {
			t.Fatalf("record %d did not parse", i)
		}
		if seq != uint64(i+100) || len(payload) != len(want) {
			t.Fatalf("record %d: seq=%d len=%d, want seq=%d len=%d", i, seq, len(payload), i+100, len(want))
		}
		off += n
	}
	if off != len(buf) {
		t.Fatalf("parsed %d of %d bytes", off, len(buf))
	}
}

// codecBatches are insert batches covering every value kind, float bit
// patterns that only a bit-exact codec keeps (NaN, -Inf, -0), and an
// empty batch.
func codecBatches() []Batch {
	return []Batch{
		{Relation: "R", Tuples: []value.Tuple{
			{value.Base("a"), value.Num(1.5), value.NullBase(3)},
			{value.Base(""), value.Num(math.NaN()), value.NullBase(0)},
			{value.Base("comma, \" and _B7"), value.Num(math.Inf(-1)), value.Base("z")},
		}},
		{Relation: "S", Tuples: []value.Tuple{
			{value.NullNum(12), value.Base("q")},
			{value.Num(math.Copysign(0, -1)), value.Base("_escaped")},
		}},
		{Relation: "Empty", Tuples: nil},
	}
}

func TestBatchCodecRoundTrip(t *testing.T) {
	for i, b := range codecBatches() {
		enc := encodeBatch(nil, b.Relation, b.Tuples)
		got, err := decodeBatch(enc)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if got.Relation != b.Relation || len(got.Tuples) != len(b.Tuples) {
			t.Fatalf("batch %d: got %q/%d tuples", i, got.Relation, len(got.Tuples))
		}
		for j := range b.Tuples {
			for k := range b.Tuples[j] {
				w, g := b.Tuples[j][k], got.Tuples[j][k]
				if w.Kind() != g.Kind() {
					t.Fatalf("batch %d tuple %d col %d: kind %v vs %v", i, j, k, g.Kind(), w.Kind())
				}
				switch w.Kind() {
				case value.NumConst:
					if math.Float64bits(w.Float()) != math.Float64bits(g.Float()) {
						t.Fatalf("batch %d tuple %d col %d: float bits diverged", i, j, k)
					}
				default:
					if w.String() != g.String() {
						t.Fatalf("batch %d tuple %d col %d: %v vs %v", i, j, k, g, w)
					}
				}
			}
		}
	}
}

func TestDecodeBatchRejectsCorruption(t *testing.T) {
	enc := encodeBatch(nil, "R", []value.Tuple{{value.Base("abc"), value.Num(1)}})
	for cut := 0; cut < len(enc); cut++ {
		if _, err := decodeBatch(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
	}
	if _, err := decodeBatch(append(enc[:len(enc):len(enc)], 0)); err == nil {
		t.Fatal("trailing byte decoded cleanly")
	}
	// Encodings encodeBatch never writes: an overlong uvarint, an empty
	// batch with a nonzero arity, and a null ID no int holds.
	for _, bad := range [][]byte{
		{0x81, 0x00, 'R', 0, 0},
		{1, 'R', 0, 1},
		binary.AppendUvarint([]byte{1, 'R', 1, 1, tagNumNull}, 1<<63),
	} {
		if _, err := decodeBatch(bad); err == nil {
			t.Errorf("non-canonical payload %x decoded cleanly", bad)
		}
	}
}

func TestLogReopenRecoversRecords(t *testing.T) {
	dir := t.TempDir()
	l, recs := mustOpenLog(t, OSFS{}, dir)
	if len(recs) != 0 {
		t.Fatalf("fresh log has %d records", len(recs))
	}
	appendAll(t, l, []byte("one"), []byte("two"), []byte("three"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs = mustOpenLog(t, OSFS{}, dir)
	var got []string
	for _, r := range recs {
		got = append(got, fmt.Sprintf("%d:%s", r.Seq, r.Payload))
	}
	if want := []string{"1:one", "2:two", "3:three"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
}

// TestLogTornTailTruncation cuts the log at every byte offset: recovery
// must return exactly the records wholly contained in the prefix and
// truncate the file to their end — never dropping a good record, never
// keeping a torn one.
func TestLogTornTailTruncation(t *testing.T) {
	full := t.TempDir()
	l, _ := mustOpenLog(t, OSFS{}, full)
	payloads := [][]byte{[]byte("alpha"), []byte("bb"), []byte("cccccccc")}
	appendAll(t, l, payloads...)
	l.Close()
	data, err := os.ReadFile(filepath.Join(full, logName))
	if err != nil {
		t.Fatal(err)
	}
	// Record boundaries for the expected-survivor count.
	bounds := []int{0}
	for off := 0; off < len(data); {
		_, _, n, ok := parseRecord(data[off:])
		if !ok {
			t.Fatalf("full log torn at %d", off)
		}
		off += n
		bounds = append(bounds, off)
	}
	for cut := 0; cut <= len(data); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, recs := mustOpenLog(t, OSFS{}, dir)
		want := 0
		for _, b := range bounds {
			if b <= cut && b > 0 {
				want++
			}
		}
		if len(recs) != want {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(recs), want)
		}
		st, err := os.Stat(filepath.Join(dir, logName))
		if err != nil {
			t.Fatal(err)
		}
		if want > 0 && st.Size() != int64(bounds[want]) {
			t.Fatalf("cut %d: file is %d bytes after truncation, want %d", cut, st.Size(), bounds[want])
		}
		// The log stays appendable on the clean boundary.
		if err := l2.Append(99, []byte("after")); err != nil {
			t.Fatal(err)
		}
		if err := l2.Sync(); err != nil {
			t.Fatal(err)
		}
		l2.Close()
		_, recs2 := mustOpenLog(t, OSFS{}, dir)
		if len(recs2) != want+1 || recs2[len(recs2)-1].Seq != 99 {
			t.Fatalf("cut %d: after re-append recovered %d records", cut, len(recs2))
		}
	}
}

// TestLogCorruptionTruncates flips one byte in the middle record: the
// records before it survive, it and everything after are dropped.
func TestLogCorruptionTruncates(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpenLog(t, OSFS{}, dir)
	appendAll(t, l, []byte("first"), []byte("second"), []byte("third"))
	l.Close()
	path := filepath.Join(dir, logName)
	data, _ := os.ReadFile(path)
	_, _, n0, _ := parseRecord(data)
	data[n0+recHeaderSize] ^= 0xff // first payload byte of record 2
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, recs := mustOpenLog(t, OSFS{}, dir)
	if len(recs) != 1 || string(recs[0].Payload) != "first" {
		t.Fatalf("recovered %d records after corruption, want the 1 good prefix", len(recs))
	}
}

func TestLogTruncatePrefix(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpenLog(t, OSFS{}, dir)
	appendAll(t, l, []byte("covered-1"), []byte("covered-2"))
	cut := l.Size()
	appendAll(t, l, []byte("live-3"))
	// appendAll restarts seqs at 1; re-tag the live record for clarity.
	if err := l.TruncatePrefix(cut); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(4, []byte("live-4")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	_, recs := mustOpenLog(t, OSFS{}, dir)
	var got []string
	for _, r := range recs {
		got = append(got, string(r.Payload))
	}
	if want := []string{"live-3", "live-4"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after prefix truncation: %v, want %v", got, want)
	}
}

func TestFaultFSInjection(t *testing.T) {
	t.Run("fail-write", func(t *testing.T) {
		dir := t.TempDir()
		ffs := &FaultFS{Inner: OSFS{}, FailWriteAt: 2}
		l, _ := mustOpenLog(t, ffs, dir)
		if err := l.Append(1, []byte("ok")); err != nil {
			t.Fatal(err)
		}
		if err := l.Append(2, []byte("boom")); err == nil {
			t.Fatal("injected write fault did not surface")
		}
	})
	t.Run("fail-sync", func(t *testing.T) {
		dir := t.TempDir()
		ffs := &FaultFS{Inner: OSFS{}, FailSyncAt: 1}
		l, _ := mustOpenLog(t, ffs, dir)
		if err := l.Append(1, []byte("ok")); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err == nil {
			t.Fatal("injected sync fault did not surface")
		}
	})
	t.Run("short-write-leaves-torn-tail", func(t *testing.T) {
		dir := t.TempDir()
		ffs := &FaultFS{Inner: OSFS{}, ShortWriteAt: 2, ShortWriteBytes: 5}
		l, _ := mustOpenLog(t, ffs, dir)
		appendAll(t, l, []byte("good"))
		if err := l.Append(2, []byte("torn-away")); err == nil {
			t.Fatal("short write did not surface")
		}
		l.Close()
		_, recs := mustOpenLog(t, OSFS{}, dir)
		if len(recs) != 1 || string(recs[0].Payload) != "good" {
			t.Fatalf("recovered %d records after short write", len(recs))
		}
	})
	t.Run("crash-after-bytes", func(t *testing.T) {
		dir := t.TempDir()
		ffs := &FaultFS{Inner: OSFS{}, CrashAfterBytes: 40}
		l, _ := mustOpenLog(t, ffs, dir)
		var alive int
		for i := 1; i <= 10; i++ {
			if err := l.Append(uint64(i), []byte("0123456789")); err != nil {
				break
			}
			if err := l.Sync(); err != nil {
				break
			}
			alive++
		}
		if alive == 0 || alive == 10 {
			t.Fatalf("crash budget acknowledged %d of 10 appends", alive)
		}
		_, recs := mustOpenLog(t, OSFS{}, dir)
		if len(recs) < alive {
			t.Fatalf("recovered %d records, lost an acknowledged one of %d", len(recs), alive)
		}
	})
}
