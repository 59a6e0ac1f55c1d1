package ledger

import "encoding/binary"

// sellerCut is one seller's share of a settlement, as the book packs it.
type sellerCut struct {
	name string
	cut  Currency
}

// Bits of an entry's cuts word, below the number of seller cuts.
const (
	entryExPost   = 1 << iota
	entryNilCuts  // SellerCuts nil rather than empty: json.Marshal writes null, not {}
	entryFlagBits = iota
)

// appendEntry packs one settlement: TxID, Epoch, Buyer, Price, ArbiterCut,
// the cuts word (the number of seller cuts above the flag bits) and the
// cuts, which the caller sorted by name. Strings are a uvarint length and
// their bytes, Currency a zig-zag varint. A book's log frames each entry with
// its length, a uvarint, so it can skip entries without decoding them.
func appendEntry(dst []byte, s *Settlement, cuts []sellerCut, nilCuts bool) []byte {
	dst = binary.AppendUvarint(appendString(dst, s.TxID), s.Epoch)
	dst = binary.AppendVarint(appendString(dst, s.Buyer), int64(s.Price))
	word := uint64(len(cuts)) << entryFlagBits
	if s.ExPost {
		word |= entryExPost
	}
	if nilCuts {
		word |= entryNilCuts
	}
	dst = binary.AppendUvarint(binary.AppendVarint(dst, int64(s.ArbiterCut)), word)
	for _, c := range cuts {
		dst = binary.AppendVarint(appendString(dst, c.name), int64(c.cut))
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// nextEntry splits the first framed entry off a book's log. The book packed
// the log itself, so it is not checked.
func nextEntry(log []byte) (entry, rest []byte) {
	n, k := binary.Uvarint(log)
	return log[k : k+int(n)], log[k+int(n):]
}

// skipEntries returns a book's log past its first k entries.
func skipEntries(log []byte, k int) []byte {
	for ; k > 0; k-- {
		_, log = nextEntry(log)
	}
	return log
}

// eachEntry decodes every entry of a book's log into fn, in order, and stops
// at fn's first error.
func eachEntry(log []byte, fn func(Settlement) error) error {
	for len(log) > 0 {
		var entry []byte
		entry, log = nextEntry(log)
		if err := fn(decodeEntry(entry)); err != nil {
			return err
		}
	}
	return nil
}

// decodeEntry unpacks one entry appendEntry packed.
func decodeEntry(b []byte) Settlement {
	uv := func() uint64 { v, n := binary.Uvarint(b); b = b[n:]; return v }
	sv := func() Currency { v, n := binary.Varint(b); b = b[n:]; return Currency(v) }
	str := func() string { n := uv(); s := string(b[:n]); b = b[n:]; return s }
	s := Settlement{TxID: str(), Epoch: uv(), Buyer: str(), Price: sv(), ArbiterCut: sv()}
	word := uv()
	s.ExPost = word&entryExPost != 0
	if word&entryNilCuts == 0 {
		s.SellerCuts = make(map[string]Currency, word>>entryFlagBits)
		for i := word >> entryFlagBits; i > 0; i-- {
			name := str()
			s.SellerCuts[name] = sv()
		}
	}
	return s
}
