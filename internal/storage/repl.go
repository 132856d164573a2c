package storage

// Replication wire format. A primary ships committed changes to
// followers as a stream of framed records:
//
//	[kind u8][epoch u64][version u64][unixnano i64][len u32][crc32c u32][payload]
//
// The CRC32C covers the first 29 header bytes plus the payload, so a
// record torn or damaged in transit is rejected before any of it is
// applied. The epoch is the leader fencing epoch: it increments on
// every promotion, and a follower that knows epoch N refuses records
// stamped with an older epoch — a revived pre-failover primary cannot
// feed it stale deltas. Three kinds exist:
//
//   - 'D' (delta): payload is the keys+script body WAL payloads also
//     carry (a u16 key count, each key as `len u16 | bytes`, then the
//     delta script); version is the snapshot version the primary
//     published when it applied the delta. Applying the stream of 'D'
//     records in version order reproduces the primary bit-for-bit.
//   - 'S' (state): payload is a State encoded by SaveAt — the base
//     relations, program, hidden set and engine configuration at
//     version, the same codec checkpoints use. Sent when a follower's
//     resume point is too old to bridge with deltas; the follower
//     replaces its state wholesale and resumes tailing from version.
//   - 'H' (heartbeat): empty payload; version is the primary's current
//     published version. Keeps the connection demonstrably alive and
//     lets an idle follower track lag.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Replication record kinds.
const (
	ReplKindDelta     byte = 'D'
	ReplKindState     byte = 'S'
	ReplKindHeartbeat byte = 'H'
)

// replHeaderSize is the fixed record header: kind u8, epoch u64,
// version u64, unixnano i64, len u32, crc32c u32 (numbers big-endian).
const replHeaderSize = 33

// maxReplPayload bounds a record payload so a corrupt length header
// cannot force a multi-gigabyte allocation on either end.
const maxReplPayload = 1 << 30

// ReplRecord is one decoded replication stream record.
type ReplRecord struct {
	Kind byte
	// Epoch is the leader fencing epoch the record was shipped under.
	// Followers reject records older than the highest epoch they have
	// seen, so a deposed primary cannot split-brain the cluster.
	Epoch    uint64
	Version  uint64
	UnixNano int64
	// Script and Keys are set for 'D' records (the keys+script body).
	Script string
	Keys   []string
	// State is the SaveAt-encoded payload of an 'S' record.
	State []byte
}

// AppendReplRecord encodes rec and appends it to dst. For 'D' records
// the payload is built from Script/Keys with the WAL's keys+script
// encoder; for 'S' records the State bytes are shipped as-is; 'H'
// records carry no payload.
func AppendReplRecord(dst []byte, rec ReplRecord) ([]byte, error) {
	var payload []byte
	switch rec.Kind {
	case ReplKindDelta:
		p, err := appendKeysScript(nil, rec.Script, rec.Keys)
		if err != nil {
			return nil, err
		}
		payload = p
	case ReplKindState:
		payload = rec.State
	case ReplKindHeartbeat:
		// empty
	default:
		return nil, fmt.Errorf("storage: unknown replication record kind %q", rec.Kind)
	}
	if len(payload) > maxReplPayload {
		return nil, fmt.Errorf("storage: replication payload of %d bytes exceeds the %d limit", len(payload), maxReplPayload)
	}
	var hdr [replHeaderSize]byte
	hdr[0] = rec.Kind
	binary.BigEndian.PutUint64(hdr[1:9], rec.Epoch)
	binary.BigEndian.PutUint64(hdr[9:17], rec.Version)
	binary.BigEndian.PutUint64(hdr[17:25], uint64(rec.UnixNano))
	binary.BigEndian.PutUint32(hdr[25:29], uint32(len(payload)))
	crc := crc32.Checksum(hdr[0:29], castagnoli)
	crc = crc32.Update(crc, castagnoli, payload)
	binary.BigEndian.PutUint32(hdr[29:33], crc)
	dst = append(dst, hdr[:]...)
	return append(dst, payload...), nil
}

// ReadReplRecord reads and decodes one record from r. A clean EOF at a
// record boundary returns io.EOF; EOF inside a record returns
// io.ErrUnexpectedEOF. Any framing or checksum failure is an error —
// the stream cannot be resynchronized past damage, so callers drop the
// connection and reconnect from their applied version.
func ReadReplRecord(r *bufio.Reader) (ReplRecord, error) {
	var hdr [replHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return ReplRecord{}, err // io.EOF here is a clean boundary
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return ReplRecord{}, err
	}
	kind := hdr[0]
	switch kind {
	case ReplKindDelta, ReplKindState, ReplKindHeartbeat:
	default:
		return ReplRecord{}, fmt.Errorf("storage: unknown replication record kind 0x%02x", kind)
	}
	n := binary.BigEndian.Uint32(hdr[25:29])
	if n > maxReplPayload {
		return ReplRecord{}, fmt.Errorf("storage: replication record payload of %d bytes exceeds the %d limit", n, maxReplPayload)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return ReplRecord{}, err
	}
	want := binary.BigEndian.Uint32(hdr[29:33])
	crc := crc32.Checksum(hdr[0:29], castagnoli)
	crc = crc32.Update(crc, castagnoli, payload)
	if crc != want {
		return ReplRecord{}, fmt.Errorf("storage: replication record crc mismatch (stored %08x, computed %08x)", want, crc)
	}
	rec := ReplRecord{
		Kind:     kind,
		Epoch:    binary.BigEndian.Uint64(hdr[1:9]),
		Version:  binary.BigEndian.Uint64(hdr[9:17]),
		UnixNano: int64(binary.BigEndian.Uint64(hdr[17:25])),
	}
	switch kind {
	case ReplKindDelta:
		script, keys, err := decodeKeysScript(payload)
		if err != nil {
			return ReplRecord{}, err
		}
		rec.Script, rec.Keys = script, keys
	case ReplKindState:
		rec.State = payload
	}
	return rec, nil
}
