package snapshot

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"polm2/internal/faultio"
	"polm2/internal/heap"
)

// Binary snapshot image format, analogous to a CRIU image directory: the
// profiling phase can persist its snapshot sequence and the Analyzer can be
// run later, or on another machine, from the images alone (the paper's
// off-line analysis workflow).
//
// Version 3 (current) is built for crash tolerance (DESIGN.md §9): after
// the magic and version byte the body is a sequence of CRC32C-framed
// sections, closed by a commit trailer, so a half-written or bit-flipped
// image is always detected instead of decoded into garbage:
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
//	header:  seq | cycle | takenAtNs | incremental byte | durationNs | sizeBytes
//	regions: nRegions | region ids (delta-encoded)
//	no-need: nNoNeed | page keys (region delta + index)
//	pages:   nPages | per page: region delta + index + nIDs + serial deltas
//
// A page's object ids are stored as their allocation serials
// (heap.ObjectID.Serial), ascending, each as its difference from the
// previous one (the first from zero); the decoder rebuilds them with
// heap.IDOf. Objects on a page were bump-allocated together, so the
// deltas are small, where the hash-valued ids would take ~9 bytes each
// even sorted. A decoded page therefore lists its ids in ascending serial
// (allocation) order.
//
// Only version 3 decodes; any other version byte is refused as corrupt.
const (
	imageMagic = "PSNP"
	// ImageVersion is the image format this package writes and reads.
	ImageVersion = 3
	// maxSection caps a section payload so a corrupted length field
	// cannot make the decoder allocate unbounded memory.
	maxSection = 64 << 20
)

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

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// FileName returns the canonical image file name for a snapshot sequence
// number, e.g. "snap-000042.img".
func FileName(seq int) string {
	return fmt.Sprintf("snap-%06d.img", seq)
}

// Write encodes the snapshot to w in the current (v3) format.
func (s *Snapshot) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(imageMagic); err != nil {
		return fmt.Errorf("snapshot: writing magic: %w", err)
	}
	if err := bw.WriteByte(ImageVersion); err != nil {
		return fmt.Errorf("snapshot: writing version: %w", err)
	}

	stream := crc32.New(castagnoli)
	writeSection := func(name string, payload []byte) error {
		var lenBuf [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(lenBuf[:], uint64(len(payload)))
		if _, err := bw.Write(lenBuf[:n]); err != nil {
			return fmt.Errorf("snapshot: writing %s section: %w", name, err)
		}
		if _, err := bw.Write(payload); err != nil {
			return fmt.Errorf("snapshot: writing %s section: %w", name, err)
		}
		var crcBuf [4]byte
		binary.LittleEndian.PutUint32(crcBuf[:], crc32.Checksum(payload, castagnoli))
		if _, err := bw.Write(crcBuf[:]); err != nil {
			return fmt.Errorf("snapshot: writing %s crc: %w", name, err)
		}
		stream.Write(payload)
		return nil
	}

	if err := writeSection("header", s.encodeHeader()); err != nil {
		return err
	}
	if err := writeSection("regions", s.encodeRegions()); err != nil {
		return err
	}
	if err := writeSection("no-need", s.encodeNoNeed()); err != nil {
		return err
	}
	if err := writeSection("pages", s.encodePages()); err != nil {
		return err
	}

	// Commit trailer: zero length + whole-stream CRC. Its presence is the
	// durable "this image is complete" marker.
	if err := bw.WriteByte(0); err != nil {
		return fmt.Errorf("snapshot: writing trailer: %w", err)
	}
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], stream.Sum32())
	if _, err := bw.Write(crcBuf[:]); err != nil {
		return fmt.Errorf("snapshot: writing trailer crc: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("snapshot: flushing image: %w", err)
	}
	return nil
}

func (s *Snapshot) encodeHeader() []byte {
	var b bytes.Buffer
	putUvarint(&b, uint64(s.Seq))
	putUvarint(&b, s.Cycle)
	putUvarint(&b, uint64(s.TakenAt))
	inc := byte(0)
	if s.Incremental {
		inc = 1
	}
	b.WriteByte(inc)
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
			serials[i] = id.Serial()
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
	br := bufio.NewReader(r)
	magic := make([]byte, len(imageMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: reading magic: %v", ErrTruncated, err)
	}
	if string(magic) != imageMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, magic)
	}
	version, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("%w: reading version: %v", ErrTruncated, err)
	}
	if version != ImageVersion {
		return nil, fmt.Errorf("%w: unsupported image version %d", ErrCorrupt, version)
	}

	// The framed sections, every CRC verified, then the commit trailer.
	stream := crc32.New(castagnoli)
	readSection := func(name string) ([]byte, error) {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: %s section length: %v", ErrTruncated, name, err)
		}
		if n == 0 {
			return nil, fmt.Errorf("%w: premature trailer before %s section", ErrCorrupt, name)
		}
		if n > maxSection {
			return nil, fmt.Errorf("%w: %s section claims %d bytes", ErrCorrupt, name, n)
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			return nil, fmt.Errorf("%w: %s section body: %v", ErrTruncated, name, err)
		}
		var crcBuf [4]byte
		if _, err := io.ReadFull(br, crcBuf[:]); err != nil {
			return nil, fmt.Errorf("%w: %s section crc: %v", ErrTruncated, name, err)
		}
		if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(crcBuf[:]); got != want {
			return nil, fmt.Errorf("%w: %s section crc mismatch (%08x != %08x)", ErrCorrupt, name, got, want)
		}
		stream.Write(payload)
		return payload, nil
	}

	var s Snapshot
	header, err := readSection("header")
	if err != nil {
		return nil, err
	}
	if err := s.decodeHeader(header); err != nil {
		return nil, err
	}
	regions, err := readSection("regions")
	if err != nil {
		return nil, err
	}
	if err := s.decodeRegions(regions); err != nil {
		return nil, err
	}
	noNeed, err := readSection("no-need")
	if err != nil {
		return nil, err
	}
	if err := s.decodeNoNeed(noNeed); err != nil {
		return nil, err
	}
	pages, err := readSection("pages")
	if err != nil {
		return nil, err
	}
	if err := s.decodePages(pages); err != nil {
		return nil, err
	}

	// Commit trailer.
	zero, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: missing commit trailer: %v", ErrTruncated, err)
	}
	if zero != 0 {
		return nil, fmt.Errorf("%w: trailing data after pages section", ErrCorrupt)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(br, crcBuf[:]); err != nil {
		return nil, fmt.Errorf("%w: trailer crc: %v", ErrTruncated, err)
	}
	if got, want := stream.Sum32(), binary.LittleEndian.Uint32(crcBuf[:]); got != want {
		return nil, fmt.Errorf("%w: trailer crc mismatch (%08x != %08x)", ErrCorrupt, got, want)
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
	inc, err := p.ReadByte()
	if err != nil {
		return fmt.Errorf("%w: header flags: %v", ErrCorrupt, err)
	}
	s.Incremental = inc == 1
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
			pr.HeaderIDs = append(pr.HeaderIDs, heap.IDOf(serial))
		}
		s.Pages = append(s.Pages, pr)
	}
	return nil
}

// WriteDir persists a snapshot sequence as an image directory. Each image
// is written to a temporary file and atomically renamed into place, so a
// crash mid-write never leaves an ambiguous snap-*.img file.
func WriteDir(dir string, snaps []*Snapshot) error {
	return WriteDirFaulty(dir, snaps, nil)
}

// WriteDirFaulty is WriteDir with a fault-injection seam: the injector (may
// be nil) interposes on every image write. If the injector's crash fault
// fires mid-sequence, the remaining images are lost exactly as a killed
// process would lose them: temporaries are abandoned unrenamed.
func WriteDirFaulty(dir string, snaps []*Snapshot, fio *faultio.Injector) error {
	for _, s := range snaps {
		if err := WriteImage(dir, s, fio); err != nil {
			return err
		}
	}
	return nil
}

// WriteImage writes one image via temp-file + atomic rename: either the
// complete image appears under its final name or nothing does. The Dumper
// uses it to persist snapshots as they are taken, so a crash loses a
// suffix of whole images, never a torn one.
func WriteImage(dir string, s *Snapshot, fio *faultio.Injector) error {
	final := filepath.Join(dir, FileName(s.Seq))
	tmp := final + ".tmp"
	f, err := fio.Create(tmp)
	if err != nil {
		return fmt.Errorf("snapshot: creating image: %w", err)
	}
	if err := s.Write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("snapshot: closing image: %w", err)
	}
	if fio.Crashed() {
		// The process died before the rename: the image never becomes
		// visible. The abandoned temporary is what a real crash leaves.
		return nil
	}
	if _, err := os.Stat(tmp); err != nil {
		// A missing-file fault swallowed the temporary entirely.
		return nil
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("snapshot: publishing image: %w", err)
	}
	return nil
}

// ReadDir loads every snapshot image in a directory, ordered by sequence
// number. Any damaged image — or a hole in the incremental chain, the
// trace a deleted image leaves — fails the whole read; use ReadDirSalvage
// to recover the usable prefix instead.
func ReadDir(dir string) ([]*Snapshot, error) {
	entries, err := filepath.Glob(filepath.Join(dir, "snap-*.img"))
	if err != nil {
		return nil, fmt.Errorf("snapshot: listing images: %w", err)
	}
	sort.Strings(entries)
	var out []*Snapshot
	for _, path := range entries {
		s, err := readImage(path)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	lastSeq := 0
	for _, s := range out {
		if s.Incremental && s.Seq != lastSeq+1 {
			return nil, fmt.Errorf("%w: incremental snapshot %d without its base (last seen %d)",
				ErrTruncated, s.Seq, lastSeq)
		}
		lastSeq = s.Seq
	}
	return out, nil
}

func readImage(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: opening image: %w", err)
	}
	defer f.Close()
	s, err := Read(f)
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
}

// Clean reports whether the directory salvaged without loss.
func (d *DirSalvage) Clean() bool { return d.Total == d.Usable && len(d.Dropped) == 0 }

// ReadDirSalvage loads the usable prefix of a snapshot image directory:
// images decode in sequence order until the first damaged or missing link
// in the incremental chain. A later full (non-incremental) snapshot
// restarts the chain — it replaces the whole store view, so nothing before
// it is needed.
func ReadDirSalvage(dir string) ([]*Snapshot, *DirSalvage, error) {
	entries, err := filepath.Glob(filepath.Join(dir, "snap-*.img"))
	if err != nil {
		return nil, nil, fmt.Errorf("snapshot: listing images: %w", err)
	}
	sort.Strings(entries)
	sal := &DirSalvage{Total: len(entries)}
	var out []*Snapshot
	broken := false // the incremental chain is severed
	lastSeq := 0
	for _, path := range entries {
		base := filepath.Base(path)
		s, err := readImage(path)
		if err != nil {
			sal.Dropped = append(sal.Dropped, fmt.Sprintf("%s: %v", base, err))
			broken = true
			continue
		}
		if broken && s.Incremental {
			sal.Dropped = append(sal.Dropped, fmt.Sprintf("%s: incremental after broken chain", base))
			continue
		}
		if !broken && s.Incremental && s.Seq != lastSeq+1 {
			// A sequence gap — including a chain that starts incremental
			// with its base image gone — severs the chain too.
			sal.Dropped = append(sal.Dropped, fmt.Sprintf("%s: sequence gap (%d after %d)", base, s.Seq, lastSeq))
			broken = true
			continue
		}
		broken = false
		lastSeq = s.Seq
		out = append(out, s)
		sal.Usable++
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, sal, nil
}
