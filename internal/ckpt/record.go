package ckpt

import (
	"errors"
	"io"
)

// ErrRecordReleased reports a Stream of a Record whose bytes were
// already dropped by Release.
var ErrRecordReleased = errors.New("ckpt: record bytes already released")

// Record is one checkpoint record encoded exactly once: the wire bytes
// the streaming encoder produced, kept as the sequence of Write calls it
// made, plus the record's StreamStats. Checkpoints encode their records
// at capture time — the size and checksum are needed right away — and
// replay the held bytes into the store at flush time instead of running
// the codec again. A replay repeats the encoder's writes one for one, so
// sinks whose layout depends on write boundaries (memfs chunks at rest,
// the remote store's transfer segments) end up exactly as a direct
// EncodeStream would leave them.
type Record struct {
	stats  StreamStats
	writes [][]byte // one entry per encoder Write; nil once released
}

// recordBlockMin and recordBlockMax bound the blocks a recorder packs
// writes into: small records stay small, and a large record grows
// geometrically up to blocks that leave at most one frame of slack.
const (
	recordBlockMin = 4 << 10
	recordBlockMax = 1 << 20
)

// recorder is the io.Writer a Record is captured through. Each write is
// copied into the current block (a new, larger block when it does not
// fit), so every held write is contiguous and the encoder may reuse its
// buffers as soon as Write returns.
type recorder struct {
	writes [][]byte
	block  []byte
}

func (c *recorder) Write(p []byte) (int, error) {
	if len(p) > cap(c.block)-len(c.block) {
		n := min(max(2*cap(c.block), recordBlockMin), recordBlockMax)
		c.block = make([]byte, 0, max(n, len(p)))
	}
	start := len(c.block)
	c.block = append(c.block, p...)
	c.writes = append(c.writes, c.block[start:len(c.block):len(c.block)])
	return len(p), nil
}

// Record encodes the image once into a replayable record. It also seeds
// the memoized Bytes figure from the encode, so no later call pays for
// a second pass over the image.
func (img *Image) Record() (*Record, error) {
	r, err := record(img.EncodeStream)
	if err == nil && img.sizeCache == 0 {
		img.sizeCache = r.stats.Raw
	}
	return r, err
}

// Record encodes the delta record once into a replayable record.
func (d *DeltaImage) Record() (*Record, error) { return record(d.EncodeStream) }

// record runs one streaming encode into a recorder.
func record(encode func(io.Writer) (StreamStats, error)) (*Record, error) {
	var c recorder
	st, err := encode(&c)
	if err != nil {
		return nil, err
	}
	return &Record{stats: st, writes: c.writes}, nil
}

// Stats returns the record's wire size, logical size, peak encoder
// buffering, and checksum. They outlive Release.
func (r *Record) Stats() StreamStats { return r.stats }

// Stream replays the record into w with the encoder's original sequence
// of writes, returning the record's stats. It may be called any number
// of times until Release; every call writes identical bytes. A write
// error stops the replay, as it would have stopped the encoder.
func (r *Record) Stream(w io.Writer) (StreamStats, error) {
	if r.writes == nil {
		return StreamStats{}, ErrRecordReleased
	}
	for _, b := range r.writes {
		if _, err := w.Write(b); err != nil {
			return StreamStats{}, err
		}
	}
	return r.stats, nil
}

// Release drops the held wire bytes once the record is durable or no
// longer needed; Stats stays valid.
func (r *Record) Release() { r.writes = nil }
