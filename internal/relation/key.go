package relation

import "encoding/binary"

// AppendRowKey appends a canonical composite key over the cells of row at
// the given indexes, in the given order, to dst and returns the extended
// slice. The encoding is each cell's Value.Key preceded by its length as a
// 4-byte big-endian number, so no cell's bytes can shift a boundary between
// cells: two rows share a key only if their cells do, one by one. It is
// identical for equal rows regardless of how the key was built, so the hash
// join and privacy's k-anonymity grouping share one encoder.
func AppendRowKey(dst []byte, row []Value, idx []int) []byte {
	for _, i := range idx {
		at := len(dst)
		dst = append(dst, 0, 0, 0, 0)
		dst = row[i].AppendKey(dst)
		binary.BigEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	}
	return dst
}
