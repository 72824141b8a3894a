package recorder

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"polm2/internal/framelog"
	"polm2/internal/heap"
)

// referenceDecode is the decode Stream replaced, kept as its model: every
// verified frame's serial deltas rebuilt into ids, up to the first frame
// that holds a malformed varint.
func referenceDecode(data []byte) []heap.ObjectID {
	var out []heap.ObjectID
	fr, err := framelog.NewReader(data, streamFormat)
	for err == nil {
		var payload []byte
		if payload, err = fr.Next(); err == nil {
			var ok bool
			if out, ok = appendFrameIDs(out, payload); !ok {
				break
			}
		}
	}
	return out
}

// appendFrameIDs rebuilds one verified frame's ids from its serial deltas.
// On a malformed varint it returns out unchanged and false.
func appendFrameIDs(out []heap.ObjectID, payload []byte) ([]heap.ObjectID, bool) {
	n, serial := len(out), uint64(0)
	for len(payload) > 0 {
		d, k := binary.Uvarint(payload)
		if k <= 0 {
			return out[:n], false
		}
		serial += d
		out = append(out, heap.ObjectID(serial))
		payload = payload[k:]
	}
	return out, true
}

// framedStream writes payloads as checksummed frames of one committed
// stream, whatever they hold.
func framedStream(t testing.TB, payloads ...[]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	fw, err := framelog.NewWriter(bw, streamFormat)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if err := fw.Frame(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Commit(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDecodeStream drives the id-stream decoder with arbitrary bytes: it
// must never panic and never allocate unboundedly, and the account it
// returns must refuse, with a typed error, exactly the streams that are not
// complete. The Stream's count and serial bounds must be those of a plain
// walk over its serials, and the walk must list the ids referenceDecode
// rebuilds. The seed corpus holds synthetic streams, one with a checksummed
// frame holding a malformed varint, and real ones from the checked-in
// profiling run.
func FuzzDecodeStream(f *testing.F) {
	// Current-format seeds over allocation-ordered ids: an empty committed
	// stream, a small one, and a multi-frame one, plus the same multi-frame
	// stream left live (no trailer).
	dir := f.TempDir()
	for _, c := range []struct {
		site   uint32
		n      int
		commit bool
	}{{1, 0, true}, {2, 17, true}, {3, 5000, true}, {4, 5000, false}} {
		path := filepath.Join(dir, streamFile(heap.SiteID(c.site)))
		func() {
			fh, err := os.Create(path)
			if err != nil {
				f.Fatal(err)
			}
			w, err := newStreamWriter(fh)
			if err != nil {
				f.Fatal(err)
			}
			for i := 1; i <= c.n; i++ {
				if err := w.appendID(heap.ObjectID(i * 7)); err != nil {
					f.Fatal(err)
				}
			}
			if c.commit {
				if err := w.Close(); err != nil {
					f.Fatal(err)
				}
			} else {
				if err := w.Flush(); err != nil {
					f.Fatal(err)
				}
				fh.Close()
			}
		}()
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// Real streams from the checked-in profiling run.
	paths, err := filepath.Glob(filepath.Join(refRecDir, "site-*.bin"))
	if err != nil {
		f.Fatal(err)
	}
	for i, path := range paths {
		if i >= 4 {
			break // a few genuine streams are enough seed diversity
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(streamFormat.Magic + "\x02"))
	f.Add([]byte(streamFormat.Magic + "\x03"))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add(framedStream(f, []byte{5, 1, 1}, []byte{3, 0x80}))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, sal := decodeStream(data)
		if sal == nil || sal.TotalBytes != int64(len(data)) {
			t.Fatalf("salvage account missing or wrong size: %+v", sal)
		}
		if c := sal.Confidence(); len(data) > 0 && (c < 0 || c > 1) {
			t.Fatalf("confidence %v out of range", c)
		}
		// A strict read refuses exactly the streams that are not complete,
		// and only with a typed error.
		err := sal.Err()
		if (err == nil) != sal.Complete {
			t.Fatalf("complete = %v, err = %v", sal.Complete, err)
		}
		if err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
			t.Fatalf("untyped failure: %v", err)
		}

		var n int
		var lo, hi uint64
		var walked []heap.ObjectID
		st.Serials(func(serial uint64) {
			if n == 0 || serial < lo {
				lo = serial
			}
			if n == 0 || serial > hi {
				hi = serial
			}
			n++
			walked = append(walked, heap.ObjectID(serial))
		})
		if gotLo, gotHi := st.Bounds(); st.Len() != n || gotLo != lo || gotHi != hi {
			t.Fatalf("stream claims %d ids in [%d, %d], its walk gives %d in [%d, %d]", st.Len(), gotLo, gotHi, n, lo, hi)
		}
		if want := referenceDecode(data); !slices.Equal(walked, want) {
			t.Fatalf("walk lists %d ids, the reference decode %d", len(walked), len(want))
		}
	})
}
