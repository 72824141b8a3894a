package framelog

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var (
	errCorrupt   = errors.New("test: corrupt")
	errTruncated = errors.New("test: truncated")
)

var testFormat = &Format{
	Magic: "TEST", Version: 7, Noun: "test file", MaxFrame: 64,
	Corrupt: errCorrupt, Truncated: errTruncated,
}

// encode writes payloads as one file, committed or left open.
func encode(t testing.TB, f *Format, payloads [][]byte, commit bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(bufio.NewWriter(&buf), f)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if err := w.Frame(p); err != nil {
			t.Fatal(err)
		}
	}
	if commit {
		err = w.Commit()
	} else {
		err = w.Flush()
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readAll drains a reader over data: the frames it verified, the reader,
// and the error that stopped it (io.EOF at a clean commit).
func readAll(data []byte, f *Format) ([][]byte, *Reader, error) {
	r, err := NewReader(data, f)
	var frames [][]byte
	for err == nil {
		var p []byte
		if p, err = r.Next(); err == nil {
			frames = append(frames, p)
		}
	}
	return frames, r, err
}

var samplePayloads = [][]byte{[]byte("alpha"), bytes.Repeat([]byte{0xab}, 64), []byte("z")}

func TestRoundTrip(t *testing.T) {
	data := encode(t, testFormat, samplePayloads, true)
	frames, r, err := readAll(data, testFormat)
	if err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
	if len(frames) != len(samplePayloads) || r.Frames != len(samplePayloads) || !r.Committed || r.Unread() != 0 {
		t.Fatalf("%d frames, %+v, %d unread", len(frames), r, r.Unread())
	}
	for i := range frames {
		if !bytes.Equal(frames[i], samplePayloads[i]) {
			t.Fatalf("frame %d = %q, want %q", i, frames[i], samplePayloads[i])
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("Next after the trailer = %v, want io.EOF again", err)
	}
	// An empty committed file is a header and a trailer.
	if _, r, err := readAll(encode(t, testFormat, nil, true), testFormat); err != io.EOF || r.Frames != 0 || !r.Committed {
		t.Fatalf("empty file: %+v, %v", r, err)
	}
}

// TestDecodeErrors: every way a file can end or break maps to one typed
// error with what the reader kept and consumed.
func TestDecodeErrors(t *testing.T) {
	full := encode(t, testFormat, samplePayloads, true)
	open := encode(t, testFormat, samplePayloads, false)
	flip := func(off int) []byte {
		d := append([]byte(nil), full...)
		d[off] ^= 0x01
		return d
	}
	header := len(testFormat.Magic) + 1
	for _, c := range []struct {
		name      string
		data      []byte
		kind      error
		reason    string
		frames    int
		committed bool
		unread    int
	}{
		{"empty", nil, errTruncated, "test file ends inside its header", 0, false, 0},
		{"magic only", []byte("TEST"), errTruncated, "test file ends inside its header", 0, false, 4},
		{"bad magic", []byte("TSET\x07"), errCorrupt, `bad magic "TSET"`, 0, false, 5},
		{"other version", append([]byte("TEST\x02"), full[header:]...), errCorrupt, "unsupported test file version 2", 0, false, len(full)},
		{"no trailer", open, errTruncated, "test file ends without commit trailer after 3 frames", 3, false, 0},
		{"torn frame", full[:header+1+3], errTruncated, "frame 1 torn mid-payload", 0, false, 3},
		{"bad frame crc", flip(header + 2), errCorrupt, "frame 1 checksum mismatch", 0, false, len(full) - header - 1 - 5 - 4},
		{"trailer crc missing", full[:len(full)-2], errTruncated, "trailer checksum missing", 3, false, 0},
		{"bad trailer crc", flip(len(full) - 1), errCorrupt, "trailer checksum mismatch", 3, false, 0},
		{"trailing bytes", append(append([]byte(nil), full...), 0, 0, 0), errCorrupt, "3 bytes after the commit trailer", 3, true, 3},
		{"frame over cap", append([]byte("TEST\x07"), 65), errCorrupt, "frame 1 claims 65 bytes", 0, false, 0},
		{"length overflow", append([]byte("TEST\x07"), bytes.Repeat([]byte{0xff}, 11)...), errCorrupt, "frame 1 length overflows", 0, false, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, r, err := readAll(c.data, testFormat)
			var fe *Error
			if !errors.As(err, &fe) || !errors.Is(err, c.kind) || !strings.HasPrefix(fe.Reason, c.reason) {
				t.Fatalf("err = %v, want %v: %s", err, c.kind, c.reason)
			}
			if err.Error() != c.kind.Error()+": "+fe.Reason {
				t.Fatalf("error text %q", err)
			}
			if r.Frames != c.frames || r.Committed != c.committed || r.Unread() != c.unread {
				t.Fatalf("frames %d committed %v unread %d, want %d %v %d",
					r.Frames, r.Committed, r.Unread(), c.frames, c.committed, c.unread)
			}
			if _, again := r.Next(); again != err {
				t.Fatalf("Next after an error = %v, want the same %v", again, err)
			}
		})
	}
}

func TestWriterRefusesFramesOutsideTheCap(t *testing.T) {
	w, err := NewWriter(bufio.NewWriter(io.Discard), testFormat)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, testFormat.MaxFrame + 1} {
		if err := w.Frame(make([]byte, n)); err == nil {
			t.Errorf("a %d-byte frame was written", n)
		}
	}
	if err := w.Frame(make([]byte, testFormat.MaxFrame)); err != nil {
		t.Fatalf("a frame at the cap: %v", err)
	}
}

// The checked-in reference run: PREC streams and PSNP images.
const (
	refRecDir  = "../../testdata/artifacts/v3/records"
	refSnapDir = "../../testdata/artifacts/v3/snaps"
)

// Test copies of the two formats the pipeline writes; the recorder and
// snapshot packages hold the real ones.
var (
	precFormat = &Format{Magic: "PREC", Version: 3, Noun: "stream", MaxFrame: 1 << 20, Corrupt: errCorrupt, Truncated: errTruncated}
	psnpFormat = &Format{Magic: "PSNP", Version: 3, Noun: "image", MaxFrame: 64 << 20, Corrupt: errCorrupt, Truncated: errTruncated}
)

// FuzzReader: on any input, under every format, the reader never panics,
// stops only with io.EOF or a typed error, and the frames it returned are
// exactly what the writer would have written for the bytes it verified:
// re-framing them yields a prefix of the input, and the whole input when
// the reader reached a clean commit.
func FuzzReader(f *testing.F) {
	for _, glob := range []string{filepath.Join(refRecDir, "site-*.bin"), filepath.Join(refSnapDir, "snap-*.img")} {
		paths, err := filepath.Glob(glob)
		if err != nil {
			f.Fatal(err)
		}
		for _, path := range paths[:min(4, len(paths))] {
			data, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	full := encode(f, testFormat, samplePayloads, true)
	f.Add(full)
	f.Add(full[:len(full)/2])
	f.Add(append(append([]byte(nil), full...), 0))
	f.Add([]byte("TEST\x07\x00\x00\x00\x00\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, format := range []*Format{precFormat, psnpFormat, testFormat} {
			frames, r, err := readAll(data, format)
			if err != io.EOF && !errors.Is(err, errCorrupt) && !errors.Is(err, errTruncated) {
				t.Fatalf("untyped error %v", err)
			}
			if r.Frames != len(frames) || r.Unread() < 0 || r.Unread() > len(data) {
				t.Fatalf("%d frames returned, reader reports %d, %d of %d unread", len(frames), r.Frames, r.Unread(), len(data))
			}
			if _, herr := NewReader(data, format); herr != nil {
				if len(frames) > 0 || r.Unread() != len(data) {
					t.Fatalf("refused header, yet %d frames and %d of %d bytes consumed", len(frames), len(data)-r.Unread(), len(data))
				}
				continue
			}
			var buf bytes.Buffer
			w, _ := NewWriter(bufio.NewWriter(&buf), format)
			for _, p := range frames {
				if err := w.Frame(p); err != nil {
					t.Fatalf("returned frame the writer refuses: %v", err)
				}
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(data, buf.Bytes()) || len(data)-r.Unread() < buf.Len() {
				t.Fatalf("re-framed %d frames are not the verified prefix of the input", len(frames))
			}
			if r.Committed {
				if err := w.Commit(); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf.Bytes(), data[:len(data)-r.Unread()]) || (err == io.EOF) != (r.Unread() == 0) {
					t.Fatalf("committed at %d of %d bytes with %v", len(data)-r.Unread(), len(data), err)
				}
			} else if err == io.EOF {
				t.Fatal("io.EOF without a commit")
			}
		}
	})
}
