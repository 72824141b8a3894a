package recorder

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"polm2/internal/heap"
)

// Allocation-record stream format (DESIGN.md §9). Version 3 (current) is
// framed for crash tolerance:
//
//	magic "PREC" | version byte (3)
//	frame:   uvarint payloadLen (>0) | payload | crc32c(payload) LE
//	...
//	trailer: uvarint 0 | crc32c(all frame payloads, in order) LE
//
// A frame payload is a run of uvarints, one per recorded object: the
// object's allocation serial (heap.ObjectID.Serial) minus the previous
// one's in the same frame, a wrapping uint64 difference; the first of a
// frame is its serial minus zero. Every frame therefore decodes on its
// own, and any id sequence encodes. A site's objects are recorded in
// allocation order, so a delta is the number of allocations between two
// of them: a byte or two, where the hash-valued id itself takes ~9.
//
// The writer seals a frame on every Flush and whenever 512 bytes
// accumulate, so a torn stream loses at most the unsealed tail: a few
// hundred records. The commit trailer is written by Close: its presence
// distinguishes a cleanly ended recording from one cut short. Only
// version 3 decodes: a stream that does not open with the magic and that
// version byte is refused, never reinterpreted.
const (
	streamMagic = "PREC"
	// StreamVersion is the stream format this package writes and reads.
	StreamVersion = 3
	// frameTarget seals a frame once its payload reaches this size, about
	// 500 allocation-ordered ids. A frame is the unit a tear loses; its
	// length prefix and checksum cost ~1 % of the payload.
	frameTarget = 512
	// maxFrame caps a frame payload so a corrupt length cannot drive an
	// unbounded allocation.
	maxFrame = 1 << 20
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

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// streamWriter writes one site's framed id stream.
type streamWriter struct {
	f      io.WriteCloser
	bw     *bufio.Writer
	frame  []byte
	stream hash.Hash32
	// prev is the serial of the frame's last id, zero at a frame start.
	prev   uint64
	closed bool
}

func newStreamWriter(f io.WriteCloser) (*streamWriter, error) {
	w := &streamWriter{
		f:      f,
		bw:     bufio.NewWriterSize(f, 32*1024),
		stream: crc32.New(castagnoli),
	}
	if _, err := w.bw.WriteString(streamMagic); err != nil {
		return nil, err
	}
	if err := w.bw.WriteByte(StreamVersion); err != nil {
		return nil, err
	}
	return w, nil
}

// appendID buffers one id into the current frame as its serial's delta
// from the previous id's, sealing the frame at the frame target.
func (w *streamWriter) appendID(id heap.ObjectID) error {
	serial := id.Serial()
	w.frame = binary.AppendUvarint(w.frame, serial-w.prev)
	w.prev = serial
	if len(w.frame) >= frameTarget {
		return w.sealFrame()
	}
	return nil
}

// sealFrame writes the pending frame with its checksum.
func (w *streamWriter) sealFrame() error {
	if len(w.frame) == 0 {
		return nil
	}
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(w.frame)))
	if _, err := w.bw.Write(lenBuf[:n]); err != nil {
		return err
	}
	if _, err := w.bw.Write(w.frame); err != nil {
		return err
	}
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], crc32.Checksum(w.frame, castagnoli))
	if _, err := w.bw.Write(crcBuf[:]); err != nil {
		return err
	}
	w.stream.Write(w.frame)
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
	return w.bw.Flush()
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
	if err := w.bw.WriteByte(0); err != nil {
		return err
	}
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], w.stream.Sum32())
	if _, err := w.bw.Write(crcBuf[:]); err != nil {
		return err
	}
	if err := w.bw.Flush(); err != nil {
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
}

// Confidence is the fraction of the stream that decoded, in [0,1].
func (s *StreamSalvage) Confidence() float64 {
	if s == nil || s.TotalBytes == 0 {
		return 0
	}
	return 1 - float64(s.LostBytes)/float64(s.TotalBytes)
}

// decodeStream decodes a whole stream image. In strict mode any damage —
// including a missing commit trailer — is an error; in salvage mode the
// valid prefix is returned along with an account of the loss.
func decodeStream(data []byte, strict bool) ([]heap.ObjectID, *StreamSalvage, error) {
	sal := &StreamSalvage{TotalBytes: int64(len(data))}
	br := bytes.NewReader(data)
	stream := crc32.New(castagnoli)
	var out []heap.ObjectID

	fail := func(reason string, typed error) ([]heap.ObjectID, *StreamSalvage, error) {
		sal.LostBytes = int64(br.Len())
		sal.Reason = reason
		if strict {
			return nil, sal, fmt.Errorf("%w: %s", typed, reason)
		}
		return out, sal, nil
	}

	switch {
	case len(data) < len(streamMagic)+1:
		return fail("stream ends inside its header", ErrTruncated)
	case string(data[:len(streamMagic)]) != streamMagic:
		return fail(fmt.Sprintf("bad magic %q", data[:len(streamMagic)]), ErrCorrupt)
	case data[len(streamMagic)] != StreamVersion:
		return fail(fmt.Sprintf("unsupported stream version %d", data[len(streamMagic)]), ErrCorrupt)
	}
	br.Reset(data[len(streamMagic)+1:])

	for frame := 1; ; frame++ {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return fail(fmt.Sprintf("stream ends without commit trailer after %d frames", sal.Frames), ErrTruncated)
		}
		if n == 0 {
			// Commit trailer.
			var crcBuf [4]byte
			if _, err := io.ReadFull(br, crcBuf[:]); err != nil {
				return fail("trailer checksum missing", ErrTruncated)
			}
			if got, want := stream.Sum32(), binary.LittleEndian.Uint32(crcBuf[:]); got != want {
				return fail(fmt.Sprintf("trailer checksum mismatch (%08x != %08x)", got, want), ErrCorrupt)
			}
			sal.Complete = true
			sal.LostBytes = int64(br.Len()) // trailing junk, if any
			if sal.LostBytes > 0 {
				sal.Reason = fmt.Sprintf("%d bytes of trailing junk after commit trailer", sal.LostBytes)
				if strict {
					return nil, sal, fmt.Errorf("%w: %s", ErrCorrupt, sal.Reason)
				}
			}
			return out, sal, nil
		}
		if n > maxFrame {
			return fail(fmt.Sprintf("frame %d claims %d bytes", frame, n), ErrCorrupt)
		}
		if int64(n)+4 > int64(br.Len()) {
			return fail(fmt.Sprintf("frame %d torn mid-payload", frame), ErrTruncated)
		}
		payload := make([]byte, n)
		io.ReadFull(br, payload) //nolint:errcheck // length checked above
		var crcBuf [4]byte
		io.ReadFull(br, crcBuf[:]) //nolint:errcheck // length checked above
		if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(crcBuf[:]); got != want {
			return fail(fmt.Sprintf("frame %d checksum mismatch (%08x != %08x)", frame, got, want), ErrCorrupt)
		}
		// Frame verified: rebuild its ids from the serial deltas.
		pr := bytes.NewReader(payload)
		serial := uint64(0)
		for pr.Len() > 0 {
			d, err := binary.ReadUvarint(pr)
			if err != nil {
				// A checksummed frame with a malformed varint can
				// only be a writer bug, not disk damage.
				return fail(fmt.Sprintf("frame %d holds a malformed varint", frame), ErrCorrupt)
			}
			serial += d
			out = append(out, heap.IDOf(serial))
		}
		stream.Write(payload)
		sal.Frames++
	}
}

// ReadIDs streams the identity hashes recorded for one site back from
// disk, strictly: a damaged or uncommitted stream is refused with an error
// wrapping ErrCorrupt or ErrTruncated. Use SalvageIDs to recover the valid
// prefix instead.
func ReadIDs(dir string, site heap.SiteID) ([]heap.ObjectID, error) {
	data, err := os.ReadFile(filepath.Join(dir, streamFile(site)))
	if err != nil {
		return nil, fmt.Errorf("recorder: reading stream for site %d: %w", site, err)
	}
	ids, _, err := decodeStream(data, true)
	if err != nil {
		return nil, fmt.Errorf("recorder: stream for site %d: %w", site, err)
	}
	return ids, nil
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
// checksum-verified frame before the first damage. The error is non-nil
// only when the file cannot be read at all.
func SalvageIDs(dir string, site heap.SiteID) ([]heap.ObjectID, *StreamSalvage, error) {
	data, err := os.ReadFile(filepath.Join(dir, streamFile(site)))
	if err != nil {
		return nil, nil, fmt.Errorf("recorder: reading stream for site %d: %w", site, err)
	}
	ids, sal, _ := decodeStream(data, false)
	return ids, sal, nil
}
