package search

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Durable checkpoints: the gob serialization of a Checkpoint with a
// small versioned header and a CRC-guarded footer. EncodeCheckpoint and
// DecodeCheckpoint expose the sealed byte form itself, while
// SaveCheckpoint/LoadCheckpoint add the on-disk atomicity layer (temp
// file + rename) with last-good rotation. The cross-process shard runtime
// does not use this form: it ships Checkpoint values on CRC-framed gob
// streams. gob is the one codec the Checkpoint types are designed for —
// Snapshot payloads are registered by their engine packages from init,
// and gob round-trips the ±Inf crowding distances JSON rejects.
//
// Layout (versions 2 and 3):
//
//	[gob(diskCheckpoint)] [payload length: uint64 LE] [CRC32-C: uint32 LE] [footer magic: uint32 LE]
//
// Version 3 payloads carry every population as a ga.Packed: raw IEEE
// bits behind varint counts, one opaque string to gob. Version-2 payloads
// carry them in gob's struct form, in snapshot fields this build still
// reads; a version-2 build would read a version-3 file as one with empty
// populations, which the version number makes it refuse instead.
//
// The footer turns silent corruption (bit rot, torn writes that survived
// rename, copy truncation) into a typed *CorruptError instead of a gob
// panic or a mis-decode; so does a malformed packed population, which
// fails the gob decode. Only version 1 predates the footer: a file of a
// later version that ends without the footer magic lost its footer (a
// cut, or a flipped magic bit), so it is corrupt too. SaveCheckpoint
// rotates the previous snapshot to path+PrevSuffix before installing the
// new one, and LoadLatestCheckpoint falls back to it — so one corrupted
// write never strands a long campaign.

// checkpointMagic identifies a checkpoint file; checkpointVersion gates the
// layout so a future format change fails loudly instead of mis-decoding.
// Version 1 files (no footer) and version 2 files are still readable.
const (
	checkpointMagic   = "sacga-checkpoint"
	checkpointVersion = 3
)

// footerMagic terminates a version-2 or later checkpoint file; footerSize
// is the fixed footer length in bytes.
const (
	footerMagic = 0x5ac6ac91
	footerSize  = 16
)

// PrevSuffix is appended to a checkpoint path to name the rotated
// last-good snapshot.
const PrevSuffix = ".prev"

// CorruptError reports that a checkpoint file exists but cannot be
// trusted: its CRC does not match, its structure does not decode, or its
// header identifies something else entirely. Match with errors.As; resume
// paths use it to fall back to the rotated last-good snapshot.
type CorruptError struct {
	// Path is the offending file.
	Path string
	// Reason describes the failed integrity check.
	Reason string
}

// Error implements error.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("search: corrupt checkpoint %s: %s", e.Path, e.Reason)
}

// diskCheckpoint is the on-disk envelope.
type diskCheckpoint struct {
	Magic      string
	Version    int
	Checkpoint *Checkpoint
}

// EncodeCheckpoint serializes cp into the sealed checkpoint form: the gob
// envelope followed by the length/CRC footer. The bytes are exactly what
// SaveCheckpoint writes to disk.
func EncodeCheckpoint(cp *Checkpoint) ([]byte, error) {
	if cp == nil {
		return nil, fmt.Errorf("search: encode nil checkpoint")
	}
	var payload bytes.Buffer
	enc := gob.NewEncoder(&payload)
	if err := enc.Encode(&diskCheckpoint{Magic: checkpointMagic, Version: checkpointVersion, Checkpoint: cp}); err != nil {
		return nil, fmt.Errorf("search: encode checkpoint: %w", err)
	}
	var footer [footerSize]byte
	binary.LittleEndian.PutUint64(footer[0:8], uint64(payload.Len()))
	binary.LittleEndian.PutUint32(footer[8:12], crc32.Checksum(payload.Bytes(), castagnoli))
	binary.LittleEndian.PutUint32(footer[12:16], footerMagic)
	return append(payload.Bytes(), footer[:]...), nil
}

// SaveCheckpoint durably writes cp to path with last-good rotation. An
// existing checkpoint at path is first rotated to path+PrevSuffix; the new
// snapshot is then encoded, CRC-sealed and installed by WriteFileAtomic,
// so readers (and a resume after a crash mid-save) see either a complete
// checkpoint at path or none, never a partial file. A crash or a failed
// write between the rotation and the install leaves path missing but the
// last-good snapshot in place, which LoadLatestCheckpoint recovers.
func SaveCheckpoint(path string, cp *Checkpoint) error {
	data, err := EncodeCheckpoint(cp)
	if err != nil {
		return err
	}
	if _, err := os.Stat(path); err == nil {
		if err := os.Rename(path, path+PrevSuffix); err != nil {
			return fmt.Errorf("search: rotate last-good checkpoint: %w", err)
		}
	}
	return WriteFileAtomic(path, data)
}

// WriteFileAtomic durably installs data at path: it writes a temporary
// file in path's directory, syncs it, renames it over path and syncs the
// directory. Readers, and a restart after a crash mid-write, see either
// the previous file or the new one, never a partial file, and once it
// returns a power loss cannot forget the install.
//
// Durability invariant: a rename only becomes crash-safe once the parent
// directory's metadata reaches disk, so the DIRECTORY is fsynced after
// the install. Syncing only the file leaves a window where a power loss
// forgets the rename (and any rename before it in the same directory,
// such as SaveCheckpoint's .prev rotation) — the data blocks were durable
// but no directory entry pointed at them.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("search: temp file for %s: %w", path, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("search: write %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("search: sync %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("search: close %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("search: install %s: %w", path, err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("search: sync directory of %s: %w", path, err)
	}
	return nil
}

// syncDir flushes a directory's metadata (the rename pair) to disk.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// DecodeCheckpoint parses data in the sealed checkpoint form, verifying
// the CRC footer before anything is decoded; any integrity failure — bad
// CRC, truncation, a lost footer, a payload that does not decode — is
// reported as a *CorruptError (src names the origin, e.g. a file path),
// never a gob panic. Version-1 payloads (written before the footer
// existed) are still accepted, decode-guarded.
func DecodeCheckpoint(src string, data []byte) (*Checkpoint, error) {
	payload := data
	versionFloor := 1 // footerless files can only be version 1
	if n := len(data); n >= footerSize && binary.LittleEndian.Uint32(data[n-4:]) == footerMagic {
		plen := binary.LittleEndian.Uint64(data[n-footerSize : n-8])
		if plen != uint64(n-footerSize) {
			return nil, &CorruptError{Path: src, Reason: fmt.Sprintf("footer claims %d payload bytes, file carries %d", plen, n-footerSize)}
		}
		payload = data[:n-footerSize]
		if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(data[n-8:n-4]); got != want {
			return nil, &CorruptError{Path: src, Reason: fmt.Sprintf("CRC mismatch: computed %08x, footer records %08x", got, want)}
		}
		versionFloor = 2
	}
	disk, err := decodeEnvelope(src, payload)
	if err != nil {
		return nil, err
	}
	if disk.Magic != checkpointMagic {
		return nil, &CorruptError{Path: src, Reason: "not a checkpoint file"}
	}
	if versionFloor == 1 && disk.Version > 1 {
		return nil, &CorruptError{Path: src, Reason: fmt.Sprintf("version-%d checkpoint without its CRC footer", disk.Version)}
	}
	if disk.Version < versionFloor || disk.Version > checkpointVersion {
		return nil, fmt.Errorf("search: checkpoint %s has version %d, this build reads %d", src, disk.Version, checkpointVersion)
	}
	if disk.Checkpoint == nil {
		return nil, &CorruptError{Path: src, Reason: "empty checkpoint envelope"}
	}
	return disk.Checkpoint, nil
}

// LoadCheckpoint reads a checkpoint written by SaveCheckpoint. The engine
// package that produced the snapshot must be linked into the binary (its
// init registers the gob payload type); Resume the result on a fresh
// engine of the same algorithm, under the options the original run used.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeCheckpoint(path, data)
}

// decodeEnvelope gob-decodes the envelope with a panic guard: gob is not
// hardened against hostile input, and a corrupted stream can panic deep in
// reflection. A CRC pass makes that unreachable in practice; the guard
// covers footerless legacy files and CRC collisions.
func decodeEnvelope(src string, payload []byte) (disk *diskCheckpoint, err error) {
	defer func() {
		if r := recover(); r != nil {
			disk, err = nil, &CorruptError{Path: src, Reason: fmt.Sprintf("decode panicked: %v", r)}
		}
	}()
	disk = new(diskCheckpoint)
	if derr := gob.NewDecoder(bytes.NewReader(payload)).Decode(disk); derr != nil {
		return nil, &CorruptError{Path: src, Reason: fmt.Sprintf("decode: %v", derr)}
	}
	return disk, nil
}

// LoadLatestCheckpoint loads the newest trustworthy snapshot of a rotated
// checkpoint pair: path itself when it verifies, else the rotated
// last-good at path+PrevSuffix. It returns the checkpoint, the file that
// supplied it, and — when the primary was corrupt but the fallback
// succeeded — a nil error (the corruption is recoverable by construction;
// callers that must know can compare loadedFrom against path). When both
// fail, the error joins both causes.
func LoadLatestCheckpoint(path string) (cp *Checkpoint, loadedFrom string, err error) {
	cp, err = LoadCheckpoint(path)
	if err == nil {
		return cp, path, nil
	}
	prev := path + PrevSuffix
	cp2, err2 := LoadCheckpoint(prev)
	if err2 == nil {
		return cp2, prev, nil
	}
	if os.IsNotExist(err2) {
		return nil, "", err
	}
	return nil, "", errors.Join(err, err2)
}
