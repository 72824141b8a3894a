package recorder

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"polm2/internal/heap"
)

// bufCloser is an in-memory stream file.
type bufCloser struct{ bytes.Buffer }

func (*bufCloser) Close() error { return nil }

// encodeStream writes ids as one committed stream, flushing after each
// index in flushAt, and returns the bytes plus the stream length at every
// flush: a frame-aligned point a crash can leave behind.
func encodeStream(t *testing.T, ids []heap.ObjectID, flushAt map[int]bool) (data []byte, cuts []int) {
	t.Helper()
	var buf bufCloser
	w, err := newStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if err := w.appendID(id); err != nil {
			t.Fatal(err)
		}
		if flushAt[i] {
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			cuts = append(cuts, buf.Len())
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), cuts
}

// framePayloads splits a stream into its frame payloads.
func framePayloads(t *testing.T, data []byte) [][]byte {
	t.Helper()
	var out [][]byte
	pos := len(streamFormat.Magic) + 1
	for {
		n, k := binary.Uvarint(data[pos:])
		if k <= 0 {
			t.Fatalf("bad frame length at %d", pos)
		}
		if n == 0 {
			return out
		}
		pos += k
		out = append(out, data[pos:pos+int(n)])
		pos += int(n) + 4
	}
}

// TestStreamRoundTripAnyIDs: the serial-delta encoding is total. Ids in
// allocation order, reversed, repeated, at the ends of the uint64 range or
// raw random values all decode back exactly, across Flush calls and frame
// seals; every frame decodes on its own, and a stream cut at a frame
// boundary salvages exactly the ids written before the cut.
func TestStreamRoundTripAnyIDs(t *testing.T) {
	// serials returns the ids of n serials from `from` on, stepping by
	// step with uint64 wraparound.
	serials := func(from uint64, n int, step uint64) []heap.ObjectID {
		ids := make([]heap.ObjectID, n)
		for i := range ids {
			ids[i] = heap.ObjectID(from)
			from += step
		}
		return ids
	}
	rng := rand.New(rand.NewSource(25))
	random := make([]heap.ObjectID, 3000)
	for i := range random {
		random[i] = heap.ObjectID(rng.Uint64())
	}
	extremes := []heap.ObjectID{0, math.MaxUint64, 1 << 63, 1, math.MaxUint64 - 1, 1<<63 - 1, 0, 0, math.MaxUint64}
	for _, c := range []struct {
		name string
		ids  []heap.ObjectID
	}{
		{"allocation-order", serials(1, 9000, 1)},
		{"descending", serials(9000, 9000, math.MaxUint64)}, // step -1
		{"repeated", repeat([]heap.ObjectID{77}, 5000)},
		{"extremes", repeat(extremes, 400)},
		{"random", random},
		{"wrapping-serials", serials(math.MaxUint64-2000, 4000, 1)},
	} {
		ids := c.ids
		t.Run(c.name, func(t *testing.T) {
			flushAt := map[int]bool{}
			for i := 0; i < len(ids); i += 1 + rng.Intn(700) {
				flushAt[i] = true
			}
			data, cuts := encodeStream(t, ids, flushAt)
			got, sal := decodeIDs(data)
			if err := sal.Err(); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, ids) {
				t.Fatalf("decoded %d ids, not the %d written", len(got), len(ids))
			}

			// Every frame starts from serial zero, so it decodes alone.
			var alone []heap.ObjectID
			frames := framePayloads(t, data)
			for _, payload := range frames {
				serial := uint64(0)
				for len(payload) > 0 {
					d, k := binary.Uvarint(payload)
					serial += d
					alone = append(alone, heap.ObjectID(serial))
					payload = payload[k:]
				}
			}
			if !slices.Equal(alone, ids) || len(frames) != sal.Frames {
				t.Fatalf("frames decoded one by one give %d ids over %d frames, want %d over %d",
					len(alone), len(frames), len(ids), sal.Frames)
			}

			// A frame-aligned cut salvages exactly the flushed prefix.
			flushed := 0
			for i := range ids {
				if !flushAt[i] {
					continue
				}
				cut := cuts[flushed]
				flushed++
				prefix, psal := decodeIDs(data[:cut])
				if !errors.Is(psal.Err(), ErrTruncated) || psal.Complete || psal.LostBytes != 0 {
					t.Fatalf("cut at %d: %+v", cut, psal)
				}
				if !slices.Equal(prefix, ids[:i+1]) {
					t.Fatalf("cut at %d salvaged %d ids, want the %d written before it", cut, len(prefix), i+1)
				}
			}
		})
	}
}

func repeat(ids []heap.ObjectID, n int) []heap.ObjectID {
	var out []heap.ObjectID
	for ; n > 0; n-- {
		out = append(out, ids...)
	}
	return out
}

// TestStreamBytesPerAllocatedID: a site's ids arrive in allocation order,
// so each costs one serial delta of a byte or two.
func TestStreamBytesPerAllocatedID(t *testing.T) {
	var ids []heap.ObjectID
	for s := uint64(1 << 30); len(ids) < 10000; s += 1 + uint64(len(ids)%100) {
		ids = append(ids, heap.ObjectID(s))
	}
	data, _ := encodeStream(t, ids, nil)
	if perID := float64(len(data)) / float64(len(ids)); perID > 1.1 {
		t.Fatalf("%d ids took %d bytes (%.2f per id); deltas under 128 should take one byte", len(ids), len(data), perID)
	}
}

// TestReferenceStreamsReencode pins the stream bytes: every checked-in
// stream decodes, and re-recording its ids through the writer (a
// no-flush recording) reproduces the file byte for byte.
func TestReferenceStreamsReencode(t *testing.T) {
	sites, err := Streams(refRecDir)
	if err != nil || len(sites) != 17 {
		t.Fatalf("%d reference streams: %v", len(sites), err)
	}
	for _, sid := range sites {
		want, err := os.ReadFile(filepath.Join(refRecDir, streamFile(sid)))
		if err != nil {
			t.Fatal(err)
		}
		ids, err := readIDs(refRecDir, sid)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := encodeStream(t, ids, nil); !bytes.Equal(got, want) {
			t.Fatalf("site %d: re-encoding %d ids gave %d bytes, not the checked-in %d", sid, len(ids), len(got), len(want))
		}
	}
}

// TestStreamRefusesMalformedVarint: a checksummed frame whose deltas do not
// parse is a writer bug. The decode keeps the frames before it, counts only
// theirs, and refuses the stream as corrupt, naming the frame.
func TestStreamRefusesMalformedVarint(t *testing.T) {
	st, sal := decodeStream(framedStream(t, []byte{5, 1, 1}, []byte{3, 0x80}))
	if !errors.Is(sal.Err(), ErrCorrupt) || sal.Reason != "frame 2 holds a malformed varint" || sal.Frames != 1 {
		t.Fatalf("salvage %+v, err %v", sal, sal.Err())
	}
	if lo, hi := st.Bounds(); st.Len() != 3 || lo != 5 || hi != 7 {
		t.Fatalf("stream holds %d ids in [%d, %d], want the first frame's 3 in [5, 7]", st.Len(), lo, hi)
	}
	if got, want := streamIDs(st), []heap.ObjectID{5, 6, 7}; !slices.Equal(got, want) {
		t.Fatalf("ids %v, want %v", got, want)
	}
}
