package heap

import "slices"

// objChunkBits sets the object index's chunk size: each chunk covers 4096
// consecutive allocation serials, 32 KiB of pointers, which is the largest
// Go size class below a dedicated large-object span.
const objChunkBits = 12

// objChunkLen is the number of serials one index chunk covers.
const objChunkLen = 1 << objChunkBits

// objChunk is one run of the object index: slot s&(objChunkLen-1) holds the
// resident object of serial s, or nil.
type objChunk [objChunkLen]*Object

// objIndex maps ids, which are allocation serials, to resident objects,
// for the callers that hold an id and not a pointer. It is a table of
// fixed chunks over the serial line instead of a hash map: Allocate writes
// serials in sequence, so inserts fill one chunk after another, and a
// chunk whose last resident is removed goes onto a freelist, so a
// steady-state heap recycles its chunks as it recycles its Object structs.
type objIndex struct {
	// chunks[k] covers chunk base+k of the serial line, or is nil once
	// every object of that range was removed (or before the first was
	// allocated); chunks[0] is never nil: it holds the oldest resident.
	base   uint64
	chunks []*objChunk
	// live[k] counts the non-nil slots of chunks[k].
	live []int32
	// spare holds emptied chunks, every slot nil.
	spare []*objChunk
	// n is the number of indexed objects.
	n int
}

// add indexes obj under its id. Ids arrive in increasing order, so obj
// lies in the last chunk or past it.
func (x *objIndex) add(obj *Object) {
	s := uint64(obj.ID)
	if len(x.chunks) == 0 {
		x.base = s >> objChunkBits
	}
	k := int(s>>objChunkBits - x.base)
	for k >= len(x.chunks) {
		x.chunks = append(x.chunks, nil)
		x.live = append(x.live, 0)
	}
	c := x.chunks[k]
	if c == nil {
		if n := len(x.spare); n > 0 {
			c = x.spare[n-1]
			x.spare[n-1] = nil
			x.spare = x.spare[:n-1]
		} else {
			c = new(objChunk)
		}
		x.chunks[k] = c
	}
	c[s&(objChunkLen-1)] = obj
	x.live[k]++
	x.n++
}

// remove drops id, which must be indexed, and frees its chunk once it
// holds nothing; freeing chunk 0 also drops the empty chunks after it.
func (x *objIndex) remove(id ObjectID) {
	k := int(uint64(id)>>objChunkBits - x.base)
	c := x.chunks[k]
	c[id&(objChunkLen-1)] = nil
	x.n--
	if x.live[k]--; x.live[k] == 0 {
		x.chunks[k] = nil
		x.spare = append(x.spare, c)
		if k == 0 {
			lead := 1
			for lead < len(x.chunks) && x.chunks[lead] == nil {
				lead++
			}
			x.chunks = slices.Delete(x.chunks, 0, lead)
			x.live = slices.Delete(x.live, 0, lead)
			x.base += uint64(lead)
		}
	}
}

// get returns the resident object with identity id, or nil for an id that
// was never allocated or whose object was removed. An id below the table
// wraps past its end.
func (x *objIndex) get(id ObjectID) *Object {
	k := uint64(id)>>objChunkBits - x.base
	if k >= uint64(len(x.chunks)) || x.chunks[k] == nil {
		return nil
	}
	return x.chunks[k][id&(objChunkLen-1)]
}
