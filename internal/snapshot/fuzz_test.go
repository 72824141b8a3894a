package snapshot

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"polm2/internal/heap"
)

// FuzzRead drives the image decoder with arbitrary bytes: it must never
// panic and never allocate unboundedly, only return a snapshot or a typed
// error. The seed corpus holds synthetic images and real ones from the
// checked-in profiling run.
func FuzzRead(f *testing.F) {
	// Current-format seeds from the canonical sample and an empty snapshot.
	for _, s := range []*Snapshot{
		sampleSnapshot(),
		{Seq: 1},
		{Seq: 2, Regions: []heap.RegionID{1}, TakenAt: time.Second},
	} {
		var buf bytes.Buffer
		if err := s.Write(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// Real images from the checked-in profiling run.
	paths, err := filepath.Glob(filepath.Join(refSnapDir, "snap-*.img"))
	if err != nil {
		f.Fatal(err)
	}
	for i, path := range paths {
		if i >= 4 {
			break // a few genuine images are enough seed diversity
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte("PSNP\x02"))
	f.Add([]byte("PSNP\x03"))
	f.Add([]byte("PSNP\x01\x01"))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successfully decoded snapshot must be safe to replay.
		if s.Seq > 0 {
			store := NewStore()
			if err := store.Apply(s); err != nil {
				t.Skip() // out-of-order seq is a store-level refusal, fine
			}
		}
	})
}
