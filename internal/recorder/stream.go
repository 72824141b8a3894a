package recorder

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"polm2/internal/framelog"
	"polm2/internal/heap"
)

// Allocation-record stream format (DESIGN.md §9). Version 3 (current) is
// a framelog file:
//
//	magic "PREC" | version byte (3)
//	frame:   uvarint payloadLen (>0) | payload | crc32c(payload) LE
//	...
//	trailer: uvarint 0 | crc32c(all frame payloads, in order) LE
//
// A frame payload is a run of uvarints, one per recorded object: the
// object's id, its allocation serial, minus the previous one's in the same
// frame, a wrapping uint64 difference; the first of a frame is its serial
// minus zero. Every frame therefore decodes on its own, and any id
// sequence encodes. A site's objects are recorded in allocation order, so
// a delta is the number of allocations between two of them: a byte or
// two.
//
// The writer seals a frame on every Flush and whenever 512 bytes
// accumulate, so a torn stream loses at most the unsealed tail: a few
// hundred records. The commit trailer is written by Close: its presence
// distinguishes a cleanly ended recording from one cut short.
const (
	// StreamVersion is the stream format this package writes and reads.
	StreamVersion = 3
	// frameTarget seals a frame once its payload reaches this size, about
	// 500 allocation-ordered ids. A frame is the unit a tear loses; its
	// length prefix and checksum cost ~1 % of the payload.
	frameTarget = 512
)

// Typed decode failures, mirroring the snapshot codec's.
var (
	// ErrCorrupt reports structural damage to an artifact: a checksum
	// mismatch, malformed varint, or impossible frame length.
	ErrCorrupt = errors.New("recorder: artifact corrupt")
	// ErrTruncated reports an artifact that ends before its commit
	// trailer — a recording cut short.
	ErrTruncated = errors.New("recorder: artifact truncated")
)

// streamFormat describes PREC v3 to framelog. Its 1 MiB frame cap sits
// far above the frame target.
var streamFormat = &framelog.Format{
	Magic: "PREC", Version: StreamVersion, Noun: "stream", MaxFrame: 1 << 20,
	Corrupt: ErrCorrupt, Truncated: ErrTruncated,
}

// streamWriter writes one site's framed id stream.
type streamWriter struct {
	f     io.WriteCloser
	fw    *framelog.Writer
	frame []byte
	// prev is the serial of the frame's last id, zero at a frame start.
	prev   uint64
	closed bool
}

func newStreamWriter(f io.WriteCloser) (*streamWriter, error) {
	fw, err := framelog.NewWriter(bufio.NewWriterSize(f, 32*1024), streamFormat)
	if err != nil {
		return nil, err
	}
	return &streamWriter{f: f, fw: fw}, nil
}

// appendID buffers one id into the current frame as its serial's delta
// from the previous id's, sealing the frame at the frame target.
func (w *streamWriter) appendID(id heap.ObjectID) error {
	w.frame = binary.AppendUvarint(w.frame, uint64(id)-w.prev)
	w.prev = uint64(id)
	if len(w.frame) >= frameTarget {
		return w.sealFrame()
	}
	return nil
}

// sealFrame writes the pending frame, if any.
func (w *streamWriter) sealFrame() error {
	if len(w.frame) == 0 {
		return nil
	}
	if err := w.fw.Frame(w.frame); err != nil {
		return err
	}
	w.frame = w.frame[:0]
	w.prev = 0
	return nil
}

// Flush seals the pending frame and pushes everything to the file, leaving
// the stream open for more records — the consistent-on-disk point the
// online mode analyzes from.
func (w *streamWriter) Flush() error {
	if err := w.sealFrame(); err != nil {
		return err
	}
	return w.fw.Flush()
}

// Close seals the pending frame, writes the commit trailer and closes the
// file.
func (w *streamWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.sealFrame(); err != nil {
		return err
	}
	if err := w.fw.Commit(); err != nil {
		return err
	}
	return w.f.Close()
}

// StreamSalvage describes how much of one id stream a decode recovered.
type StreamSalvage struct {
	// Frames is the number of verified frames.
	Frames int
	// Complete reports a verified commit trailer.
	Complete bool
	// LostBytes counts bytes past the last decodable point.
	LostBytes int64
	// TotalBytes is the stream file's size; 1-LostBytes/TotalBytes is the
	// salvage confidence the Analyzer floors on.
	TotalBytes int64
	// Reason says why decoding stopped short, empty when Complete.
	Reason string
	// err is the typed failure that stopped the decode; nil when Complete.
	err error
}

// Err returns the error ReadIDs refuses the stream with: the failure that
// stopped the decode, wrapping ErrCorrupt or ErrTruncated, or nil when the
// stream is Complete.
func (s *StreamSalvage) Err() error { return s.err }

// Confidence is the fraction of the stream that decoded, in [0,1].
func (s *StreamSalvage) Confidence() float64 {
	if s == nil || s.TotalBytes == 0 {
		return 0
	}
	return 1 - float64(s.LostBytes)/float64(s.TotalBytes)
}

// Stream is one site's decoded id stream: the verified frame payloads,
// aliasing the file image they were read from, with the record count and
// the lowest and highest serial. It holds no per-record state: Serials
// walks the payloads' serial deltas again. The zero Stream is empty.
type Stream struct {
	frames [][]byte
	n      int
	lo, hi uint64
}

// Len is the number of records in the stream, duplicates included.
func (s Stream) Len() int { return s.n }

// Bounds returns the lowest and highest recorded serial; both are zero for
// an empty stream.
func (s Stream) Bounds() (lo, hi uint64) { return s.lo, s.hi }

// Serials calls fn with every recorded serial (the recorded id as a
// uint64), in stream order. The decode verified every frame it kept,
// so the walk cannot fail.
func (s Stream) Serials(fn func(serial uint64)) {
	for _, payload := range s.frames {
		serial := uint64(0)
		for len(payload) > 0 {
			d, k := binary.Uvarint(payload)
			serial += d
			fn(serial)
			payload = payload[k:]
		}
	}
}

// addFrame verifies one checksummed frame's serial deltas and appends it to
// the stream. On a malformed varint it leaves the stream unchanged and
// returns false.
func (s *Stream) addFrame(payload []byte) bool {
	n, lo, hi := s.n, s.lo, s.hi
	serial := uint64(0)
	for p := payload; len(p) > 0; {
		d, k := binary.Uvarint(p)
		if k <= 0 {
			return false
		}
		serial += d
		if n == 0 || serial < lo {
			lo = serial
		}
		if n == 0 || serial > hi {
			hi = serial
		}
		n++
		p = p[k:]
	}
	s.frames = append(s.frames, payload)
	s.n, s.lo, s.hi = n, lo, hi
	return true
}

// decodeStream decodes a whole stream image: every verified frame before
// the first damage, and an account of the loss whose Err is the typed
// failure that stopped the decode. A stream missing only its commit
// trailer decodes every frame and still reports ErrTruncated. The Stream
// aliases data.
func decodeStream(data []byte) (Stream, *StreamSalvage) {
	var st Stream
	fr, err := framelog.NewReader(data, streamFormat)
	for err == nil {
		var payload []byte
		if payload, err = fr.Next(); err == nil && !st.addFrame(payload) {
			// A checksummed frame with a malformed varint can only be a
			// writer bug, not disk damage.
			err = &framelog.Error{Kind: ErrCorrupt, Reason: fmt.Sprintf("frame %d holds a malformed varint", fr.Frames)}
		}
	}
	sal := &StreamSalvage{Frames: len(st.frames), Complete: fr.Committed, LostBytes: int64(fr.Unread()), TotalBytes: int64(len(data))}
	if err != io.EOF {
		var fe *framelog.Error
		errors.As(err, &fe)
		sal.Reason, sal.err = fe.Reason, err
	}
	return st, sal
}

// ReadIDs reads back one site's recorded stream, strictly: it is
// SalvageIDs refusing any stream that is not Complete, with the error of
// StreamSalvage.Err.
func ReadIDs(dir string, site heap.SiteID) (Stream, error) {
	st, sal, err := SalvageIDs(dir, site)
	if err == nil {
		err = sal.Err()
	}
	if err != nil {
		return Stream{}, err
	}
	return st, nil
}

// Streams lists the sites that have an id stream file in dir, ascending.
func Streams(dir string) ([]heap.SiteID, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "site-*.bin"))
	if err != nil {
		return nil, fmt.Errorf("recorder: listing streams: %w", err)
	}
	sites := make([]heap.SiteID, 0, len(paths))
	for _, p := range paths {
		var n uint32
		if _, err := fmt.Sscanf(filepath.Base(p), "site-%d.bin", &n); err != nil {
			continue
		}
		sites = append(sites, heap.SiteID(n))
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	return sites, nil
}

// SalvageIDs decodes as much of one site's stream as survives: every
// checksum-verified frame before the first damage, kept in the file image
// the Stream aliases. The error is non-nil only when the file cannot be
// read at all.
func SalvageIDs(dir string, site heap.SiteID) (Stream, *StreamSalvage, error) {
	data, err := os.ReadFile(filepath.Join(dir, streamFile(site)))
	if err != nil {
		return Stream{}, nil, fmt.Errorf("recorder: reading stream for site %d: %w", site, err)
	}
	st, sal := decodeStream(data)
	if sal.err != nil {
		sal.err = fmt.Errorf("recorder: stream for site %d: %w", site, sal.err)
	}
	return st, sal, nil
}
