package hgio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path"

	"hgmatch/internal/hypergraph"
)

// Atomic graph checkpoints: the durable base the WAL replays on top of.
// A checkpoint is an HGB2 binary graph behind a small header, written with
// the classic crash-safe dance — write to a temp name, fsync the file,
// rename over the real name, fsync the directory — so a crash at any
// instant leaves either the old checkpoint or the new one, never a torn
// mix.
//
// The header records the WAL sequence the snapshot covers. That coverage
// mark travels INSIDE the checkpoint file because the two facts must
// commit atomically: if the mark lived elsewhere, a crash between the
// checkpoint rename and the WAL truncation (WAL.Reset) would leave a
// checkpoint that already contains batches the log still holds, and
// replaying them is not a no-op — a replayed delete can remove an edge a
// later covered batch legitimately re-inserted. Recovery instead passes
// the mark to OpenWAL as StartAfter, which skips every covered batch.
// After a failed checkpoint the old checkpoint plus the full WAL still
// replay to the current state, so checkpoint failure is benign and
// compaction simply retries later.
//
// Version 2 ends in a CRC32C of everything before it, so a flipped bit in
// the coverage mark or the graph reads as an unreadable checkpoint instead
// of a wrong base. Version 1, which had no trailer, is unreadable too: a
// coverage mark without a checksum is what the trailer exists to reject.

// CheckpointFile is the checkpoint's name inside a graph's WAL directory.
const CheckpointFile = "checkpoint.hgb"

const (
	checkpointMagic   = "HGCP"
	checkpointVersion = 2
	checkpointHdrLen  = 16 // magic | version u32 | covered seq u64
	checkpointCRCLen  = 4  // CRC32C of header + graph
)

// SaveCheckpoint atomically replaces dir's checkpoint with h, recording
// that the snapshot covers every WAL batch with sequence <= seq.
func SaveCheckpoint(fs WALFS, dir string, h *hypergraph.Hypergraph, seq uint64) error {
	if fs == nil {
		fs = OSFS
	}
	tmp := path.Join(dir, CheckpointFile+".tmp")
	f, err := fs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		f.Close()
		fs.Remove(tmp)
		return err
	}
	var hdr [checkpointHdrLen]byte
	copy(hdr[:4], checkpointMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], checkpointVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], seq)
	crc := crc32.New(castagnoli)
	w := io.MultiWriter(f, crc)
	if _, err := w.Write(hdr[:]); err != nil {
		return fail(err)
	}
	if err := WriteBinary(w, h); err != nil {
		return fail(err)
	}
	if _, err := f.Write(binary.LittleEndian.AppendUint32(nil, crc.Sum32())); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		fs.Remove(tmp)
		return err
	}
	if err := fs.Rename(tmp, path.Join(dir, CheckpointFile)); err != nil {
		fs.Remove(tmp)
		return err
	}
	return fs.SyncDir(dir)
}

// LoadCheckpoint reads dir's checkpoint and the WAL sequence it covers.
// found reports whether a checkpoint file exists at all; (nil, 0, true,
// err) means one exists but is unreadable — the caller should quarantine
// it rather than trust the WAL without its base.
func LoadCheckpoint(fs WALFS, dir string) (h *hypergraph.Hypergraph, seq uint64, found bool, err error) {
	if fs == nil {
		fs = OSFS
	}
	f, err := fs.OpenFile(path.Join(dir, CheckpointFile), os.O_RDONLY, 0)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, 0, false, nil
		}
		return nil, 0, false, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return nil, 0, true, fmt.Errorf("hgio: checkpoint %s: %w", CheckpointFile, err)
	}
	if size < checkpointHdrLen {
		return nil, 0, true, fmt.Errorf("hgio: checkpoint %s: header: %w", CheckpointFile, io.ErrUnexpectedEOF)
	}
	data := make([]byte, size)
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, 0, true, fmt.Errorf("hgio: checkpoint %s: %w", CheckpointFile, err)
	}
	hdr := data[:checkpointHdrLen]
	if string(hdr[:4]) != checkpointMagic {
		return nil, 0, true, fmt.Errorf("hgio: checkpoint %s: bad magic", CheckpointFile)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != checkpointVersion {
		return nil, 0, true, fmt.Errorf("hgio: checkpoint %s: unsupported version %d", CheckpointFile, v)
	}
	if len(data) < checkpointHdrLen+checkpointCRCLen {
		return nil, 0, true, fmt.Errorf("hgio: checkpoint %s: trailer: %w", CheckpointFile, io.ErrUnexpectedEOF)
	}
	end := len(data) - checkpointCRCLen
	if crc32.Checksum(data[:end], castagnoli) != binary.LittleEndian.Uint32(data[end:]) {
		return nil, 0, true, fmt.Errorf("hgio: checkpoint %s: checksum mismatch", CheckpointFile)
	}
	body := data[checkpointHdrLen:end]
	seq = binary.LittleEndian.Uint64(hdr[8:16])
	h, err = readBinaryImage(body)
	if err != nil {
		return nil, 0, true, fmt.Errorf("hgio: checkpoint %s: %w", CheckpointFile, err)
	}
	return h, seq, true, nil
}
