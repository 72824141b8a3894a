// Package framelog is the one framing every durable artifact of the
// profiling pipeline shares (DESIGN.md §9): the Recorder's id streams and
// the Dumper's snapshot images are both
//
//	magic | version byte
//	frame:   uvarint payloadLen (>0) | payload | crc32c(payload) LE
//	...
//	trailer: uvarint 0 | crc32c(all frame payloads, in order) LE
//
// Each format describes itself once, as a Format, and keeps only its
// payload codec. A frame is the unit a tear loses; the commit trailer is
// the durable "this file is complete" marker, so a file cut short is
// always told apart from a finished one.
//
// The reader settles every framing question the same way for every
// format. A file that does not open with the format's magic and version
// is refused, never reinterpreted. Frames are returned only once their
// checksum verifies, so a reader that stops at the first error has read a
// trustworthy prefix. Bytes after a verified trailer are corrupt: nothing
// a writer produces ends that way, so strict readers refuse the file and
// salvage readers report the bytes as lost.
package framelog

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Format describes one framed file format.
type Format struct {
	Magic   string
	Version byte
	// Noun names a file of the format in decode errors ("stream").
	Noun string
	// MaxFrame caps a frame payload, so a corrupt length cannot drive an
	// unbounded allocation in a reader of the format.
	MaxFrame int
	// Corrupt and Truncated are the format's typed decode failures: every
	// Reader error wraps exactly one of them. Corrupt is structural damage
	// (bad magic or version, checksum mismatch, impossible length, bytes
	// after the trailer); Truncated is a file that ends before its commit
	// trailer, the signature of a crash mid-write.
	Corrupt, Truncated error
}

// Error is a decode failure: Kind is the format's Corrupt or Truncated
// error, Reason says what the reader met.
type Error struct {
	Kind   error
	Reason string
}

func (e *Error) Error() string { return e.Kind.Error() + ": " + e.Reason }
func (e *Error) Unwrap() error { return e.Kind }

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Writer frames payloads onto a buffered writer. The caller owns the
// buffer, and with it how the bytes reach the file.
type Writer struct {
	bw  *bufio.Writer
	f   *Format
	sum uint32 // crc32c of every payload framed so far
}

// NewWriter writes the format's header to bw.
func NewWriter(bw *bufio.Writer, f *Format) (*Writer, error) {
	if _, err := bw.WriteString(f.Magic); err != nil {
		return nil, err
	}
	if err := bw.WriteByte(f.Version); err != nil {
		return nil, err
	}
	return &Writer{bw: bw, f: f}, nil
}

// Frame writes one checksummed frame. A payload must be non-empty (a zero
// length is the trailer) and within the format's cap.
func (w *Writer) Frame(payload []byte) error {
	if len(payload) == 0 || len(payload) > w.f.MaxFrame {
		return fmt.Errorf("framelog: a %s frame of %d bytes is outside (0, %d]", w.f.Noun, len(payload), w.f.MaxFrame)
	}
	var buf [binary.MaxVarintLen64]byte
	if _, err := w.bw.Write(binary.AppendUvarint(buf[:0], uint64(len(payload)))); err != nil {
		return err
	}
	if _, err := w.bw.Write(payload); err != nil {
		return err
	}
	if _, err := w.bw.Write(binary.LittleEndian.AppendUint32(buf[:0], crc32.Checksum(payload, castagnoli))); err != nil {
		return err
	}
	w.sum = crc32.Update(w.sum, castagnoli, payload)
	return nil
}

// Flush pushes every frame written so far to the underlying writer.
func (w *Writer) Flush() error { return w.bw.Flush() }

// Commit writes the commit trailer and flushes. Nothing may follow it.
func (w *Writer) Commit() error {
	if err := w.bw.WriteByte(0); err != nil {
		return err
	}
	var buf [4]byte
	if _, err := w.bw.Write(binary.LittleEndian.AppendUint32(buf[:0], w.sum)); err != nil {
		return err
	}
	return w.bw.Flush()
}

// Reader returns the verified frames of one file held in memory.
type Reader struct {
	f    *Format
	data []byte
	pos  int // bytes consumed so far
	sum  uint32
	err  error
	// Frames counts the verified frames returned.
	Frames int
	// Committed reports a verified commit trailer.
	Committed bool
}

// NewReader checks data's header. On error the Reader still reports
// what it consumed: nothing.
func NewReader(data []byte, f *Format) (*Reader, error) {
	r := &Reader{f: f, data: data}
	h := len(f.Magic)
	switch {
	case len(data) < h+1:
		return r, r.fail(f.Truncated, "%s ends inside its header", f.Noun)
	case string(data[:h]) != f.Magic:
		return r, r.fail(f.Corrupt, "bad magic %q", data[:h])
	case data[h] != f.Version:
		return r, r.fail(f.Corrupt, "unsupported %s version %d", f.Noun, data[h])
	}
	r.pos = h + 1
	return r, nil
}

// Next returns the next verified frame's payload, which aliases the data.
// It returns io.EOF at a verified commit trailer that ends the data, and
// otherwise an *Error; once it has returned either, it keeps returning it.
func (r *Reader) Next() ([]byte, error) {
	if r.err != nil {
		return nil, r.err
	}
	n, k := binary.Uvarint(r.data[r.pos:])
	switch {
	case k == 0:
		r.pos = len(r.data)
		return nil, r.fail(r.f.Truncated, "%s ends without commit trailer after %d frames", r.f.Noun, r.Frames)
	case k < 0:
		r.pos += min(-k, binary.MaxVarintLen64)
		return nil, r.fail(r.f.Corrupt, "frame %d length overflows", r.Frames+1)
	}
	r.pos += k
	if n == 0 {
		return nil, r.trailer()
	}
	if n > uint64(r.f.MaxFrame) {
		return nil, r.fail(r.f.Corrupt, "frame %d claims %d bytes", r.Frames+1, n)
	}
	if n+4 > uint64(r.Unread()) {
		return nil, r.fail(r.f.Truncated, "frame %d torn mid-payload", r.Frames+1)
	}
	payload := r.data[r.pos : r.pos+int(n)]
	r.pos += int(n) + 4
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(r.data[r.pos-4:]); got != want {
		return nil, r.fail(r.f.Corrupt, "frame %d checksum mismatch (%08x != %08x)", r.Frames+1, got, want)
	}
	r.sum = crc32.Update(r.sum, castagnoli, payload)
	r.Frames++
	return payload, nil
}

// trailer verifies the commit trailer whose zero length Next just read.
func (r *Reader) trailer() error {
	if r.Unread() < 4 {
		r.pos = len(r.data)
		return r.fail(r.f.Truncated, "trailer checksum missing")
	}
	want := binary.LittleEndian.Uint32(r.data[r.pos:])
	r.pos += 4
	if r.sum != want {
		return r.fail(r.f.Corrupt, "trailer checksum mismatch (%08x != %08x)", r.sum, want)
	}
	r.Committed = true
	if n := r.Unread(); n > 0 {
		return r.fail(r.f.Corrupt, "%d bytes after the commit trailer", n)
	}
	r.err = io.EOF
	return io.EOF
}

// Unread is the number of bytes the reader has not consumed: everything
// past the last verified frame or trailer, less whatever part of a damaged
// one it had to read to judge it.
func (r *Reader) Unread() int { return len(r.data) - r.pos }

func (r *Reader) fail(kind error, format string, args ...any) error {
	r.err = &Error{Kind: kind, Reason: fmt.Sprintf(format, args...)}
	return r.err
}
