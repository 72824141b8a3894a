package recorder

import (
	"errors"
	"os"

	"polm2/internal/heap"
)

var errTest = errors.New("recorder_test: injected failure")

func writeBytes(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// streamIDs lists a stream's recorded ids in stream order.
func streamIDs(st Stream) []heap.ObjectID {
	var ids []heap.ObjectID
	st.Serials(func(serial uint64) { ids = append(ids, heap.ObjectID(serial)) })
	return ids
}

// decodeIDs is decodeStream with the stream's ids listed.
func decodeIDs(data []byte) ([]heap.ObjectID, *StreamSalvage) {
	st, sal := decodeStream(data)
	return streamIDs(st), sal
}

// readIDs is ReadIDs with the stream's ids listed.
func readIDs(dir string, site heap.SiteID) ([]heap.ObjectID, error) {
	st, err := ReadIDs(dir, site)
	return streamIDs(st), err
}

// salvageIDs is SalvageIDs with the stream's ids listed.
func salvageIDs(dir string, site heap.SiteID) ([]heap.ObjectID, *StreamSalvage, error) {
	st, sal, err := SalvageIDs(dir, site)
	return streamIDs(st), sal, err
}
