package hgtest

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path"
	"sort"
	"sync"

	"hgmatch/internal/hgio"
)

// FaultFS is an in-memory hgio.WALFS for crash-recovery testing: it tracks
// per-file fsync watermarks, can stop the world after an arbitrary number
// of mutating operations (simulating a process kill at that instant), can
// fail individual fsyncs, can cut individual writes short, and can produce
// a "what the disk would hold" image after the crash — the fsynced prefix
// of every file plus a randomly torn, possibly bit-garbled prefix of its
// unsynced suffix.
//
// Durability model: file DATA is durable only up to the last Sync (or
// Truncate, which clamps the watermark); bytes past the watermark may be
// partially persisted, in order, with garbage at the torn edge — the
// standard single-file prefix model of crash-consistency harnesses.
// DIRECTORY operations (create, rename, remove) are modeled as immediately
// durable: the WAL already brackets them with SyncDir calls, and modeling
// dir-entry loss would test the model, not the recovery code.
//
// Mutating operations (writes, syncs, truncates, renames, removes,
// creates, SyncDir) advance an operation counter; CrashAfter arms a kill
// point against it. Reads don't count, but fail too once crashed — a dead
// process performs no I/O of any kind.

// ErrCrashed is returned by every FaultFS operation after the armed crash
// point has been reached.
var ErrCrashed = errors.New("hgtest: simulated crash")

// ErrInjectedSyncFailure is returned by a Sync selected via FailSync.
var ErrInjectedSyncFailure = errors.New("hgtest: injected fsync failure")

// ErrInjectedWriteFailure is returned by a Write selected via FailWrite.
var ErrInjectedWriteFailure = errors.New("hgtest: injected short write")

type memFile struct {
	data   []byte
	synced int // durable watermark: data[:synced] survives any crash
}

// FaultFS implements hgio.WALFS in memory with fault injection.
type FaultFS struct {
	mu      sync.Mutex
	files   map[string]*memFile
	dirs    map[string]bool
	ops     int64
	crashAt int64 // -1 = disarmed; ops beyond this fail with ErrCrashed
	failAt  int64 // fail the Nth Sync/SyncDir call; 0 = disabled
	syncs   int64
	failW   int64 // cut the Nth Write short; 0 = disabled
	writes  int64
}

// NewFaultFS returns an empty fault-injection filesystem.
func NewFaultFS() *FaultFS {
	return &FaultFS{files: make(map[string]*memFile), dirs: make(map[string]bool), crashAt: -1}
}

// CrashAfter arms the kill point: the first n mutating operations succeed,
// then every operation fails with ErrCrashed. CrashAfter(0) crashes
// immediately; a negative n disarms.
func (fs *FaultFS) CrashAfter(n int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if n < 0 {
		fs.crashAt = -1
		return
	}
	fs.crashAt = fs.ops + n
}

// Ops returns the number of mutating operations performed so far.
func (fs *FaultFS) Ops() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.ops
}

// FailSync makes the nth (1-based, counted from now) Sync or SyncDir call
// return ErrInjectedSyncFailure. Only that one call fails; n <= 0 disarms.
func (fs *FaultFS) FailSync(n int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.failAt = 0
	if n > 0 {
		fs.failAt = fs.syncs + n
	}
}

// FailWrite makes the nth (1-based, counted from now) Write cut short, as
// a full disk does: it persists a strict prefix of its bytes, possibly
// none, and returns ErrInjectedWriteFailure. The prefix length is the
// operation counter modulo the write's length, so it varies from write to
// write. Only that one call fails; n <= 0 disarms.
func (fs *FaultFS) FailWrite(n int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.failW = 0
	if n > 0 {
		fs.failW = fs.writes + n
	}
}

func (fs *FaultFS) crashedLocked() bool {
	return fs.crashAt >= 0 && fs.ops >= fs.crashAt
}

// mutateLocked gates one mutating operation on the crash latch.
func (fs *FaultFS) mutateLocked() error {
	if fs.crashedLocked() {
		return ErrCrashed
	}
	fs.ops++
	return nil
}

// CrashImage returns the filesystem a restarted process would find after a
// kill: every file keeps its fsynced prefix plus a random-length torn
// prefix of its unsynced suffix; when anything was torn, the final few
// torn bytes may be XOR-garbled (a partially written sector). The image's
// files are fully "durable" (they are what's on disk) and no crash is
// armed.
func (fs *FaultFS) CrashImage(rng *rand.Rand) *FaultFS {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	img := NewFaultFS()
	for d := range fs.dirs {
		img.dirs[d] = true
	}
	for name, f := range fs.files {
		keep := f.synced
		if torn := len(f.data) - f.synced; torn > 0 {
			keep += rng.Intn(torn + 1)
		}
		data := append([]byte(nil), f.data[:keep]...)
		if keep > f.synced && rng.Intn(2) == 0 {
			for i, g := 0, 1+rng.Intn(4); i < g && keep-1-i >= f.synced; i++ {
				data[keep-1-i] ^= byte(1 + rng.Intn(255))
			}
		}
		img.files[name] = &memFile{data: data, synced: len(data)}
	}
	return img
}

// Clone returns an exact, fully durable copy (no crash armed).
func (fs *FaultFS) Clone() *FaultFS {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	img := NewFaultFS()
	for d := range fs.dirs {
		img.dirs[d] = true
	}
	for name, f := range fs.files {
		img.files[name] = &memFile{data: append([]byte(nil), f.data...), synced: len(f.data)}
	}
	return img
}

// Corrupt XORs the byte at off in the named file, simulating at-rest bit
// rot (the durable watermark is unchanged).
func (fs *FaultFS) Corrupt(name string, off int64, xor byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("hgtest: corrupt %s: %w", name, os.ErrNotExist)
	}
	if off < 0 || off >= int64(len(f.data)) {
		return fmt.Errorf("hgtest: corrupt %s: offset %d out of range [0,%d)", name, off, len(f.data))
	}
	f.data[off] ^= xor
	return nil
}

// FileNames returns the paths of all files, sorted.
func (fs *FaultFS) FileNames() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	names := make([]string, 0, len(fs.files))
	for n := range fs.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// FileSize returns the named file's size, or -1 if absent.
func (fs *FaultFS) FileSize(name string) int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f, ok := fs.files[name]; ok {
		return int64(len(f.data))
	}
	return -1
}

// ReadFileData returns a copy of the named file's current bytes.
func (fs *FaultFS) ReadFileData(name string) ([]byte, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return nil, os.ErrNotExist
	}
	return append([]byte(nil), f.data...), nil
}

// faultFile is an open handle: a position over the shared memFile.
type faultFile struct {
	fs   *FaultFS
	name string
	f    *memFile
	pos  int64
	ro   bool
}

// OpenFile implements hgio.WALFS.
func (fs *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (hgio.WALFile, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashedLocked() {
		return nil, ErrCrashed
	}
	f, ok := fs.files[name]
	if !ok {
		if flag&os.O_CREATE == 0 {
			return nil, fmt.Errorf("open %s: %w", name, os.ErrNotExist)
		}
		if err := fs.mutateLocked(); err != nil {
			return nil, err
		}
		f = &memFile{}
		fs.files[name] = f
	} else if flag&os.O_TRUNC != 0 {
		if err := fs.mutateLocked(); err != nil {
			return nil, err
		}
		f.data = f.data[:0]
		f.synced = 0
	}
	return &faultFile{fs: fs, name: name, f: f, ro: flag&(os.O_WRONLY|os.O_RDWR) == 0}, nil
}

// Rename implements hgio.WALFS; atomic, immediately durable.
func (fs *FaultFS) Rename(oldpath, newpath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.mutateLocked(); err != nil {
		return err
	}
	f, ok := fs.files[oldpath]
	if !ok {
		return fmt.Errorf("rename %s: %w", oldpath, os.ErrNotExist)
	}
	fs.files[newpath] = f
	delete(fs.files, oldpath)
	return nil
}

// Remove implements hgio.WALFS; immediately durable.
func (fs *FaultFS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.mutateLocked(); err != nil {
		return err
	}
	if _, ok := fs.files[name]; !ok {
		return fmt.Errorf("remove %s: %w", name, os.ErrNotExist)
	}
	delete(fs.files, name)
	return nil
}

// MkdirAll implements hgio.WALFS.
func (fs *FaultFS) MkdirAll(dir string, perm os.FileMode) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.mutateLocked(); err != nil {
		return err
	}
	fs.dirs[path.Clean(dir)] = true
	return nil
}

// ReadDir implements hgio.WALFS.
func (fs *FaultFS) ReadDir(dir string) ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashedLocked() {
		return nil, ErrCrashed
	}
	dir = path.Clean(dir)
	var names []string
	for p := range fs.files {
		if path.Dir(p) == dir {
			names = append(names, path.Base(p))
		}
	}
	if names == nil && !fs.dirs[dir] {
		return nil, fmt.Errorf("readdir %s: %w", dir, os.ErrNotExist)
	}
	sort.Strings(names)
	return names, nil
}

// SyncDir implements hgio.WALFS. Directory mutations are already durable
// in this model, but the call still counts as a mutating op (it is one on
// a real disk) and honours injected sync failures.
func (fs *FaultFS) SyncDir(dir string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.mutateLocked(); err != nil {
		return err
	}
	fs.syncs++
	if fs.failAt != 0 && fs.syncs == fs.failAt {
		return ErrInjectedSyncFailure
	}
	return nil
}

func (ff *faultFile) Read(p []byte) (int, error) {
	ff.fs.mu.Lock()
	defer ff.fs.mu.Unlock()
	if ff.fs.crashedLocked() {
		return 0, ErrCrashed
	}
	if ff.pos >= int64(len(ff.f.data)) {
		return 0, io.EOF
	}
	n := copy(p, ff.f.data[ff.pos:])
	ff.pos += int64(n)
	return n, nil
}

func (ff *faultFile) Write(p []byte) (int, error) {
	ff.fs.mu.Lock()
	defer ff.fs.mu.Unlock()
	if ff.ro {
		return 0, fmt.Errorf("write %s: read-only handle", ff.name)
	}
	if err := ff.fs.mutateLocked(); err != nil {
		return 0, err
	}
	var err error
	if ff.fs.writes++; ff.fs.failW != 0 && ff.fs.writes == ff.fs.failW && len(p) > 0 {
		p, err = p[:ff.fs.ops%int64(len(p))], ErrInjectedWriteFailure
	}
	end := ff.pos + int64(len(p))
	if end > int64(len(ff.f.data)) {
		ff.f.data = append(ff.f.data, make([]byte, end-int64(len(ff.f.data)))...)
	}
	copy(ff.f.data[ff.pos:end], p)
	if int(ff.pos) < ff.f.synced {
		// Overwriting durable bytes dirties them again.
		ff.f.synced = int(ff.pos)
	}
	ff.pos = end
	return len(p), err
}

func (ff *faultFile) Sync() error {
	ff.fs.mu.Lock()
	defer ff.fs.mu.Unlock()
	if err := ff.fs.mutateLocked(); err != nil {
		return err
	}
	ff.fs.syncs++
	if ff.fs.failAt != 0 && ff.fs.syncs == ff.fs.failAt {
		return ErrInjectedSyncFailure
	}
	ff.f.synced = len(ff.f.data)
	return nil
}

func (ff *faultFile) Truncate(size int64) error {
	ff.fs.mu.Lock()
	defer ff.fs.mu.Unlock()
	if err := ff.fs.mutateLocked(); err != nil {
		return err
	}
	if size < 0 || size > int64(len(ff.f.data)) {
		return fmt.Errorf("truncate %s: size %d out of range", ff.name, size)
	}
	ff.f.data = ff.f.data[:size]
	if ff.f.synced > int(size) {
		ff.f.synced = int(size)
	}
	if ff.pos > size {
		ff.pos = size
	}
	return nil
}

func (ff *faultFile) Size() (int64, error) {
	ff.fs.mu.Lock()
	defer ff.fs.mu.Unlock()
	if ff.fs.crashedLocked() {
		return 0, ErrCrashed
	}
	return int64(len(ff.f.data)), nil
}

func (ff *faultFile) Close() error { return nil }

var _ hgio.WALFS = (*FaultFS)(nil)
