package relation

// rowKeySep separates cell encodings inside a composite row key. Cell
// encodings start with a kind tag byte (0x00–0x05) and never contain 0x1f,
// so the separator is unambiguous.
const rowKeySep = 0x1f

// AppendRowKey appends a canonical composite key over the cells of row at
// the given indexes, in the given order, to dst and returns the extended
// slice. The encoding is each cell's Value.Key followed by a 0x1f separator —
// identical for equal rows regardless of how the key was built, so the hash
// join and privacy's k-anonymity grouping share one encoder.
func AppendRowKey(dst []byte, row []Value, idx []int) []byte {
	for _, i := range idx {
		dst = row[i].AppendKey(dst)
		dst = append(dst, rowKeySep)
	}
	return dst
}
