package heap

// objChunkBits sets the object index's chunk size: each chunk covers 4096
// consecutive allocation serials, 32 KiB of pointers, which is the largest
// Go size class below a dedicated large-object span.
const objChunkBits = 12

// objChunkLen is the number of serials one index chunk covers.
const objChunkLen = 1 << objChunkBits

// objChunk is one run of the object index: slot s&(objChunkLen-1) holds the
// resident object of serial s, or nil.
type objChunk [objChunkLen]*Object

// objIndex maps allocation serials to resident objects, for the callers
// that hold an id and not a pointer. IDOf is a bijection, so an id's serial
// (ObjectID.Serial) is its key, and the index is a table of fixed chunks
// over the serial line instead of a hash map: Allocate writes serials in
// sequence, so inserts fill one chunk after another, and a chunk whose last
// resident is removed goes onto a freelist, so a steady-state heap recycles
// its chunks as it recycles its Object structs.
type objIndex struct {
	// chunks[k] covers serials [k*objChunkLen, (k+1)*objChunkLen); nil
	// once every object of that range was removed (or before the first
	// was allocated).
	chunks []*objChunk
	// live[k] counts the non-nil slots of chunks[k].
	live []int32
	// spare holds emptied chunks, every slot nil.
	spare []*objChunk
	// n is the number of indexed objects.
	n int
}

// add indexes obj under serial s. Serials arrive in increasing order, so s
// lies in the last chunk or starts the next one.
func (x *objIndex) add(s uint64, obj *Object) {
	k := int(s >> objChunkBits)
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

// remove drops serial s, which must be indexed, and frees its chunk once it
// holds nothing.
func (x *objIndex) remove(s uint64) {
	k := int(s >> objChunkBits)
	c := x.chunks[k]
	c[s&(objChunkLen-1)] = nil
	x.n--
	x.live[k]--
	if x.live[k] == 0 {
		x.chunks[k] = nil
		x.spare = append(x.spare, c)
	}
}

// get returns the resident object with identity id, or nil for an id that
// was never allocated or whose object was removed.
func (x *objIndex) get(id ObjectID) *Object {
	s := id.Serial()
	k := s >> objChunkBits
	if k >= uint64(len(x.chunks)) {
		return nil
	}
	c := x.chunks[k]
	if c == nil {
		return nil
	}
	if obj := c[s&(objChunkLen-1)]; obj != nil && obj.ID == id {
		return obj
	}
	return nil
}
