package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/db"
	"repro/internal/shard"
	"repro/internal/wal"
)

// countingFS is wal.OSFS with counters, and for every file written through
// it the length that has reached an fsync. Killing a process leaves the
// operating system's cache intact, so the crash image discards the
// unflushed tail itself.
type countingFS struct {
	wal.OSFS
	mu           sync.Mutex
	bytes, syncs int64
	files        map[string]*fileState
}

type fileState struct{ size, synced int64 }

func newCountingFS() *countingFS { return &countingFS{files: map[string]*fileState{}} }

// counters returns the bytes written and the fsyncs issued so far.
func (c *countingFS) counters() (bytes, syncs int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes, c.syncs
}

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	f, err := c.OSFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.files[name]
	if st == nil {
		// First sight: what is already on disk counts as flushed.
		st = &fileState{}
		if fi, err := os.Stat(name); err == nil {
			st.size, st.synced = fi.Size(), fi.Size()
		}
		c.files[name] = st
	}
	if flag&os.O_TRUNC != 0 {
		st.size, st.synced = 0, 0
	}
	return &countingFile{File: f, fs: c, st: st}, nil
}

func (c *countingFS) Truncate(name string, size int64) error {
	if err := c.OSFS.Truncate(name, size); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if st := c.files[name]; st != nil {
		st.size, st.synced = size, min(st.synced, size)
	}
	return nil
}

func (c *countingFS) Rename(oldpath, newpath string) error {
	if err := c.OSFS.Rename(oldpath, newpath); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if st := c.files[oldpath]; st != nil {
		c.files[newpath] = st
		delete(c.files, oldpath)
	}
	return nil
}

func (c *countingFS) SyncDir(name string) error {
	c.mu.Lock()
	c.syncs++
	c.mu.Unlock()
	return c.OSFS.SyncDir(name)
}

// syncedLen is the flushed length of a file written through the FS; ok is
// false for files it never opened (checkpoint files, which internal/dbio
// writes and fsyncs itself).
func (c *countingFS) syncedLen(name string) (n int64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.files[name]
	if st == nil {
		return 0, false
	}
	return st.synced, true
}

type countingFile struct {
	wal.File
	fs *countingFS
	st *fileState
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.mu.Lock()
	f.fs.bytes += int64(n)
	f.st.size += int64(n)
	f.fs.mu.Unlock()
	return n, err
}

func (f *countingFile) Sync() error {
	err := f.File.Sync()
	f.fs.mu.Lock()
	f.fs.syncs++
	if err == nil {
		f.st.synced = f.st.size
	}
	f.fs.mu.Unlock()
	return err
}

// digest is an order-sensitive content hash per relation.
func digest(d *db.Database) string {
	var sb strings.Builder
	var buf [8]byte
	for _, rel := range d.Schema().Relations() {
		h := fnv.New64a()
		for _, t := range d.Rows(rel.Name) {
			binary.LittleEndian.PutUint64(buf[:], shard.Hash(t))
			h.Write(buf[:])
		}
		fmt.Fprintf(&sb, "%s:%d:%016x ", rel.Name, d.Len(rel.Name), h.Sum64())
	}
	return sb.String()
}

// crashImage is a copy of the data directory as a crash would have left
// it, with what a recovered store must hold.
type crashImage struct {
	dir      string
	seq      uint64 // batches acknowledged
	market   int    // rows of the fed relation
	digest   string // content of the live store
	logBytes int64  // size of the image's wal.log
}

// takeCrashImage copies the live data directory, without closing the
// store, keeping of each file only what had been fsync'd. The caller
// guarantees no insert or checkpoint is in flight.
func (in *instance) takeCrashImage() (*crashImage, error) {
	img := &crashImage{
		dir:    in.dir + "-image",
		seq:    uint64(in.acked),
		market: in.seedMarket + batchRows*in.acked,
		digest: digest(in.store.DB().Snapshot()),
	}
	err := filepath.Walk(in.dir, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(in.dir, path)
		if err != nil {
			return err
		}
		if fi.IsDir() {
			return os.MkdirAll(filepath.Join(img.dir, rel), 0o755)
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if n, ok := in.fs.syncedLen(path); ok && n < int64(len(blob)) {
			blob = blob[:n]
		}
		if filepath.Base(path) == "wal.log" {
			img.logBytes = int64(len(blob))
		}
		return os.WriteFile(filepath.Join(img.dir, rel), blob, 0o644)
	})
	if err != nil {
		return nil, fmt.Errorf("crash image: %w", err)
	}
	return img, nil
}

// recovery is the outcome of reopening the crash image.
type recovery struct {
	seconds           []float64
	attempted, failed int
}

// reopen opens the image cfg.recoveries times or more (see repeatAgain)
// with wal.Open, each on a fresh copy so that every open replays the same
// log, and each from a collected heap: the served instance is closed by
// then, so no other live data decides when the collector runs. A recovered
// store must hold exactly the acknowledged batches: the sequence number,
// the row count and the content digest of the live store.
func (img *crashImage) reopen(cfg config) (*recovery, error) {
	defer os.RemoveAll(img.dir)
	rec := &recovery{}
	began := time.Now()
	for i := 0; repeatAgain(i, cfg.recoveries, began, cfg.recoveryBudget); i++ {
		dir := fmt.Sprintf("%s-%d", img.dir, i)
		if err := os.CopyFS(dir, os.DirFS(img.dir)); err != nil {
			return nil, err
		}
		rec.attempted++
		runtime.GC()
		start := time.Now()
		st, err := wal.Open(dir, wal.Options{})
		rec.seconds = append(rec.seconds, time.Since(start).Seconds())
		if err == nil {
			d := st.DB()
			switch {
			case st.Seq() != img.seq:
				err = fmt.Errorf("recovered seq %d, %d batches were acknowledged", st.Seq(), img.seq)
			case d.Len("Market") != img.market:
				err = fmt.Errorf("recovered %d Market rows, want %d", d.Len("Market"), img.market)
			case digest(d) != img.digest:
				err = fmt.Errorf("recovered content %s differs from the live store's %s", digest(d), img.digest)
			}
			if cerr := st.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			rec.failed++
			fmt.Fprintf(os.Stderr, "benchmark: recovery %d: %v\n", i, err)
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// checkpointCost is the duration of each checkpoint the feed saw — or of
// one taken now, when the feed ran without any — and the on-disk size of
// the newest checkpoint.
func (in *instance) checkpointCost(feed *windowStats) (ms []float64, bytes int64, err error) {
	for _, c := range feed.checkpoints {
		ms = append(ms, millis(c.end-c.start))
	}
	if len(ms) == 0 {
		start := time.Now()
		if err := in.store.Checkpoint(); err != nil {
			return nil, 0, err
		}
		ms = append(ms, millis(time.Since(start)))
	}
	err = filepath.Walk(in.dir, func(path string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() && strings.HasPrefix(filepath.Base(filepath.Dir(path)), "checkpoint-") {
			bytes += fi.Size()
		}
		return err
	})
	return ms, bytes, err
}
