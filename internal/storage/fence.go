package storage

// Fencing-epoch persistence. The fencing epoch is the cluster
// leadership generation: it starts at 1 for a fresh primary and
// increments every time a follower is promoted. It is deliberately
// distinct from the store's checkpoint epoch (Store.Epoch), which
// counts local snapshot rotations and never crosses the wire.
//
// The epoch lives in a tiny sidecar file next to the WAL so a revived
// primary comes back up remembering the epoch it was deposed at — the
// cluster's fencing checks then reject it before it can ship or accept
// a single stale record.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// fenceFileName is the sidecar file holding the fencing epoch as
// decimal ASCII, written atomically (temp + rename + dir fsync).
const fenceFileName = "fence.epoch"

// LoadFenceEpoch reads the persisted fencing epoch from dir. A missing
// file returns (0, nil): the caller decides the default (a fresh
// primary starts at 1).
func LoadFenceEpoch(dir string) (uint64, error) {
	data, err := os.ReadFile(filepath.Join(dir, fenceFileName))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("storage: reading fence epoch: %w", err)
	}
	e, err := strconv.ParseUint(strings.TrimSpace(string(data)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("storage: corrupt fence epoch file %q: %w", fenceFileName, err)
	}
	return e, nil
}

// SaveFenceEpoch durably records epoch in dir. The write is atomic:
// a crash leaves either the old epoch or the new one, never garbage.
func SaveFenceEpoch(dir string, epoch uint64) error {
	err := writeFileAtomic(filepath.Join(dir, fenceFileName), func(w io.Writer) error {
		_, err := fmt.Fprintf(w, "%d\n", epoch)
		return err
	})
	if err != nil {
		return fmt.Errorf("storage: writing fence epoch: %w", err)
	}
	return nil
}
