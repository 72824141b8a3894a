package recorder

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"polm2/internal/heap"
)

// FuzzDecodeStream drives the id-stream decoder with arbitrary bytes: it
// must never panic and never allocate unboundedly, and the account it
// returns must refuse, with a typed error, exactly the streams that are not
// complete. The seed corpus holds synthetic streams and real ones from the
// checked-in profiling run.
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
				if err := w.appendID(heap.IDOf(uint64(i * 7))); err != nil {
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

	f.Fuzz(func(t *testing.T, data []byte) {
		_, sal := decodeStream(data)
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
	})
}
