package snapshot

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"polm2/internal/faultio"
	"polm2/internal/framelog"
	"polm2/internal/heap"
)

// Binary snapshot image format, analogous to a CRIU image directory: the
// profiling phase can persist its snapshot sequence and the Analyzer can be
// run later, or on another machine, from the images alone (the paper's
// off-line analysis workflow).
//
// Version 3 (current) is a framelog file (DESIGN.md §9): after the magic
// and version byte come four CRC32C-framed sections, closed by a commit
// trailer, so a half-written or bit-flipped image is always detected
// instead of decoded into garbage:
//
//	magic "PSNP" | version byte (3)
//	section 1 (header):  uvarint len | payload | crc32c(payload) LE
//	section 2 (regions): uvarint len | payload | crc32c(payload) LE
//	section 3 (no-need): uvarint len | payload | crc32c(payload) LE
//	section 4 (pages):   uvarint len | payload | crc32c(payload) LE
//	trailer: uvarint 0 | crc32c(all section payloads, in order) LE
//
// Section payloads are varint-encoded (all integers varint, region ids
// delta-encoded in ascending order):
//
//	header:  seq | cycle | takenAtNs | flag byte (1) | durationNs | sizeBytes
//	regions: nRegions | region ids (delta-encoded)
//	no-need: nNoNeed | page keys (region delta + index)
//	pages:   nPages | per page: region delta + index + nIDs + serial deltas
//
// A page's object ids, their allocation serials, are stored ascending,
// each as its difference from the previous one (the first from zero).
// Objects on a page were bump-allocated together, so the deltas are a byte
// or two. A decoded page therefore lists its ids in ascending (allocation)
// order.
//
// The no-need section lists the pages that became no-need since the
// previous image, which is what the Dumper writes. An image listing every
// no-need page of the heap is valid v3 too and rebuilds the same view:
// deleting a page the view does not hold changes nothing.
//
// The header's flag byte is always 1, "incremental": every image is a
// CRIU-style increment. The decoder refuses any other value as corrupt.

// ImageVersion is the image format this package writes and reads.
const ImageVersion = 3

// Typed decode failures. Every decode error wraps exactly one of these, so
// callers can distinguish damage (salvageable) from programmer error.
var (
	// ErrCorrupt reports structural damage: bad magic, CRC mismatch,
	// malformed varints, impossible counts.
	ErrCorrupt = errors.New("snapshot: image corrupt")
	// ErrTruncated reports an image that ends before its commit trailer —
	// the signature of a crash mid-write.
	ErrTruncated = errors.New("snapshot: image truncated")
)

// imageFormat describes PSNP v3 to framelog. Its 64 MiB section cap sits
// far above any section a profiling run writes.
var imageFormat = &framelog.Format{
	Magic: "PSNP", Version: ImageVersion, Noun: "image", MaxFrame: 64 << 20,
	Corrupt: ErrCorrupt, Truncated: ErrTruncated,
}

// FileName returns the canonical image file name for a snapshot sequence
// number, e.g. "snap-000042.img".
func FileName(seq int) string {
	return fmt.Sprintf("snap-%06d.img", seq)
}

// Write encodes the snapshot to w in the current (v3) format.
func (s *Snapshot) Write(w io.Writer) error {
	fw, err := framelog.NewWriter(bufio.NewWriter(w), imageFormat)
	if err != nil {
		return fmt.Errorf("snapshot: writing header: %w", err)
	}
	for _, sec := range []struct {
		name    string
		payload []byte
	}{
		{"header", s.encodeHeader()},
		{"regions", s.encodeRegions()},
		{"no-need", s.encodeNoNeed()},
		{"pages", s.encodePages()},
	} {
		if err := fw.Frame(sec.payload); err != nil {
			return fmt.Errorf("snapshot: writing %s section: %w", sec.name, err)
		}
	}
	if err := fw.Commit(); err != nil {
		return fmt.Errorf("snapshot: writing trailer: %w", err)
	}
	return nil
}

func (s *Snapshot) encodeHeader() []byte {
	var b bytes.Buffer
	putUvarint(&b, uint64(s.Seq))
	putUvarint(&b, s.Cycle)
	putUvarint(&b, uint64(s.TakenAt))
	b.WriteByte(1)
	putUvarint(&b, uint64(s.Duration))
	putUvarint(&b, s.SizeBytes)
	return b.Bytes()
}

func (s *Snapshot) encodeRegions() []byte {
	var b bytes.Buffer
	regions := make([]heap.RegionID, len(s.Regions))
	copy(regions, s.Regions)
	sort.Slice(regions, func(i, j int) bool { return regions[i] < regions[j] })
	putUvarint(&b, uint64(len(regions)))
	prev := uint64(0)
	for _, r := range regions {
		putUvarint(&b, uint64(r)-prev)
		prev = uint64(r)
	}
	return b.Bytes()
}

func (s *Snapshot) encodeNoNeed() []byte {
	var b bytes.Buffer
	noNeed := make([]heap.PageKey, len(s.NoNeed))
	copy(noNeed, s.NoNeed)
	sort.Slice(noNeed, func(i, j int) bool { return pageKeyLess(noNeed[i], noNeed[j]) })
	putUvarint(&b, uint64(len(noNeed)))
	prev := uint64(0)
	for _, key := range noNeed {
		putUvarint(&b, uint64(key.Region)-prev)
		prev = uint64(key.Region)
		putUvarint(&b, uint64(key.Index))
	}
	return b.Bytes()
}

func (s *Snapshot) encodePages() []byte {
	var b bytes.Buffer
	pages := make([]PageRecord, len(s.Pages))
	copy(pages, s.Pages)
	sort.Slice(pages, func(i, j int) bool { return pageKeyLess(pages[i].Key, pages[j].Key) })
	putUvarint(&b, uint64(len(pages)))
	prev := uint64(0)
	for _, pr := range pages {
		putUvarint(&b, uint64(pr.Key.Region)-prev)
		prev = uint64(pr.Key.Region)
		putUvarint(&b, uint64(pr.Key.Index))
		serials := make([]uint64, len(pr.HeaderIDs))
		for i, id := range pr.HeaderIDs {
			serials[i] = uint64(id)
		}
		slices.Sort(serials)
		putUvarint(&b, uint64(len(serials)))
		prevSerial := uint64(0)
		for _, serial := range serials {
			putUvarint(&b, serial-prevSerial)
			prevSerial = serial
		}
	}
	return b.Bytes()
}

func pageKeyLess(a, b heap.PageKey) bool {
	if a.Region != b.Region {
		return a.Region < b.Region
	}
	return a.Index < b.Index
}

func putUvarint(b *bytes.Buffer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	b.Write(buf[:n])
}

// Read decodes a snapshot written by Write. Damage is reported as an error
// wrapping ErrCorrupt or ErrTruncated.
func Read(r io.Reader) (*Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("snapshot: reading image: %w", err)
	}
	return decode(data)
}

func decode(data []byte) (*Snapshot, error) {
	fr, err := framelog.NewReader(data, imageFormat)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	for _, sec := range []struct {
		name   string
		decode func([]byte) error
	}{
		{"header", s.decodeHeader},
		{"regions", s.decodeRegions},
		{"no-need", s.decodeNoNeed},
		{"pages", s.decodePages},
	} {
		payload, err := fr.Next()
		if err == io.EOF {
			return nil, fmt.Errorf("%w: premature trailer before %s section", ErrCorrupt, sec.name)
		}
		if err != nil {
			return nil, err
		}
		if err := sec.decode(payload); err != nil {
			return nil, err
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		if err == nil {
			err = fmt.Errorf("%w: trailing data after pages section", ErrCorrupt)
		}
		return nil, err
	}
	return &s, nil
}

// byteReaderFrom adapts a payload slice for the varint field decoders.
type payloadReader struct {
	*bytes.Reader
	section string
}

func newPayloadReader(section string, payload []byte) *payloadReader {
	return &payloadReader{Reader: bytes.NewReader(payload), section: section}
}

func (p *payloadReader) uvarint(field string) (uint64, error) {
	v, err := binary.ReadUvarint(p.Reader)
	if err != nil {
		return 0, fmt.Errorf("%w: %s %s: %v", ErrCorrupt, p.section, field, err)
	}
	return v, nil
}

// remaining sanity-checks an element count against the bytes left: every
// encoded element takes at least min bytes, so a count larger than that is
// a lie from a corrupted length field.
func (p *payloadReader) checkCount(field string, n uint64, min int) error {
	if n > uint64(p.Len()/min)+1 {
		return fmt.Errorf("%w: %s claims %d %s in %d bytes", ErrCorrupt, p.section, n, field, p.Len())
	}
	return nil
}

func (s *Snapshot) decodeHeader(payload []byte) error {
	p := newPayloadReader("header", payload)
	seq, err := p.uvarint("seq")
	if err != nil {
		return err
	}
	s.Seq = int(seq)
	if s.Cycle, err = p.uvarint("cycle"); err != nil {
		return err
	}
	takenAt, err := p.uvarint("instant")
	if err != nil {
		return err
	}
	s.TakenAt = time.Duration(takenAt)
	flag, err := p.ReadByte()
	if err != nil {
		return fmt.Errorf("%w: header flags: %v", ErrCorrupt, err)
	}
	if flag != 1 {
		return fmt.Errorf("%w: header flag %d, want 1 (incremental)", ErrCorrupt, flag)
	}
	dur, err := p.uvarint("duration")
	if err != nil {
		return err
	}
	s.Duration = time.Duration(dur)
	if s.SizeBytes, err = p.uvarint("size"); err != nil {
		return err
	}
	return nil
}

func (s *Snapshot) decodeRegions(payload []byte) error {
	p := newPayloadReader("regions", payload)
	n, err := p.uvarint("count")
	if err != nil {
		return err
	}
	if err := p.checkCount("regions", n, 1); err != nil {
		return err
	}
	prev := uint64(0)
	for i := uint64(0); i < n; i++ {
		delta, err := p.uvarint("region")
		if err != nil {
			return err
		}
		prev += delta
		s.Regions = append(s.Regions, heap.RegionID(prev))
	}
	return nil
}

func (s *Snapshot) decodeNoNeed(payload []byte) error {
	p := newPayloadReader("no-need", payload)
	n, err := p.uvarint("count")
	if err != nil {
		return err
	}
	if err := p.checkCount("pages", n, 2); err != nil {
		return err
	}
	prev := uint64(0)
	for i := uint64(0); i < n; i++ {
		delta, err := p.uvarint("region")
		if err != nil {
			return err
		}
		prev += delta
		idx, err := p.uvarint("index")
		if err != nil {
			return err
		}
		s.NoNeed = append(s.NoNeed, heap.PageKey{Region: heap.RegionID(prev), Index: uint32(idx)})
	}
	return nil
}

func (s *Snapshot) decodePages(payload []byte) error {
	p := newPayloadReader("pages", payload)
	n, err := p.uvarint("count")
	if err != nil {
		return err
	}
	if err := p.checkCount("pages", n, 3); err != nil {
		return err
	}
	prev := uint64(0)
	for i := uint64(0); i < n; i++ {
		delta, err := p.uvarint("region")
		if err != nil {
			return err
		}
		prev += delta
		idx, err := p.uvarint("index")
		if err != nil {
			return err
		}
		pr := PageRecord{Key: heap.PageKey{Region: heap.RegionID(prev), Index: uint32(idx)}}
		nIDs, err := p.uvarint("id count")
		if err != nil {
			return err
		}
		if err := p.checkCount("ids", nIDs, 1); err != nil {
			return err
		}
		serial := uint64(0)
		for j := uint64(0); j < nIDs; j++ {
			d, err := p.uvarint("id")
			if err != nil {
				return err
			}
			serial += d
			pr.HeaderIDs = append(pr.HeaderIDs, heap.ObjectID(serial))
		}
		s.Pages = append(s.Pages, pr)
	}
	return nil
}

// WriteImage writes one image via temp-file + atomic rename: either the
// complete image appears under its final name or nothing does. The Dumper
// uses it to persist snapshots as they are taken, so a crash loses a
// suffix of whole images, never a torn one. The injector (may be nil)
// interposes its fault plan on the write.
func WriteImage(dir string, s *Snapshot, fio *faultio.Injector) error {
	if err := fio.Publish(filepath.Join(dir, FileName(s.Seq)), s.Write); err != nil {
		return fmt.Errorf("snapshot: publishing image %d: %w", s.Seq, err)
	}
	return nil
}

// ReadDir loads every snapshot image in a directory, ordered by sequence
// number. Any damaged image — or a hole in the incremental chain, the
// trace a deleted image leaves — fails the whole read with the first such
// damage ReadDirSalvage met; use ReadDirSalvage to recover the usable
// prefix instead.
func ReadDir(dir string) ([]*Snapshot, error) {
	snaps, sal, err := ReadDirSalvage(dir)
	if err == nil && !sal.Clean() {
		err = sal.first
	}
	if err != nil {
		return nil, err
	}
	return snaps, nil
}

func readImage(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: reading image: %w", err)
	}
	s, err := decode(data)
	if err != nil {
		return nil, fmt.Errorf("snapshot: decoding %s: %w", filepath.Base(path), err)
	}
	return s, nil
}

// DirSalvage reports what ReadDirSalvage recovered from a damaged image
// directory.
type DirSalvage struct {
	// Total is the number of snap-*.img files present.
	Total int
	// Usable is the length of the usable prefix: images that decoded
	// cleanly AND chain without sequence gaps.
	Usable int
	// Dropped explains, per unusable file, why it was dropped, in
	// directory order ("<file>: <reason>").
	Dropped []string
	// first is the first damage met, as a typed error; nil when Clean.
	first error
}

// Clean reports whether the directory salvaged without loss.
func (d *DirSalvage) Clean() bool { return d.Total == d.Usable && len(d.Dropped) == 0 }

// drop records why an image is unusable.
func (d *DirSalvage) drop(base, reason string, err error) {
	d.Dropped = append(d.Dropped, base+": "+reason)
	if d.first == nil {
		d.first = err
	}
}

// ReadDirSalvage loads the usable prefix of a snapshot image directory:
// images decode in sequence order until the first damaged or missing link
// in the incremental chain; every image after it is dropped.
func ReadDirSalvage(dir string) ([]*Snapshot, *DirSalvage, error) {
	entries, err := filepath.Glob(filepath.Join(dir, "snap-*.img"))
	if err != nil {
		return nil, nil, fmt.Errorf("snapshot: listing images: %w", err)
	}
	sort.Strings(entries)
	sal := &DirSalvage{Total: len(entries)}
	var out []*Snapshot
	broken := false // the incremental chain is severed
	for _, path := range entries {
		base := filepath.Base(path)
		s, err := readImage(path)
		if err != nil {
			sal.drop(base, err.Error(), err)
			broken = true
			continue
		}
		if broken {
			sal.drop(base, "incremental after broken chain", nil)
			continue
		}
		// The usable images so far are seqs 1..len(out).
		if lastSeq := len(out); s.Seq != lastSeq+1 {
			// A sequence gap — including a chain whose base image is
			// gone — severs the chain too.
			sal.drop(base, fmt.Sprintf("sequence gap (%d after %d)", s.Seq, lastSeq),
				fmt.Errorf("%w: incremental snapshot %d without its base (last seen %d)", ErrTruncated, s.Seq, lastSeq))
			broken = true
			continue
		}
		out = append(out, s)
		sal.Usable++
	}
	return out, sal, nil
}
