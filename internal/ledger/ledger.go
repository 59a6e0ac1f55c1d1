// Package ledger implements the transaction-support substrate of the DMMS
// (paper Fig. 2 "Transaction Support" and §4.4 accountability): double-entry
// accounts for buyers, sellers and the arbiter; escrow for ex-post payment
// mechanisms; and a hash-chained, tamper-evident audit log that gives all
// participants a transparent record of what was traded, for how much, and
// how revenue was shared.
package ledger

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"

	"repro/internal/retain"
)

// Currency is an amount of market incentive: dollars in external markets,
// bonus points in internal markets, barter credits in data-exchange markets
// (paper §3.3). Stored as integer micro-units to avoid float drift.
type Currency int64

// FromFloat converts a float amount to Currency micro-units.
func FromFloat(f float64) Currency { return Currency(f*1e6 + 0.5*signf(f)) }

func signf(f float64) float64 {
	if f < 0 {
		return -1
	}
	return 1
}

// Float converts back to a float amount.
func (c Currency) Float() float64 { return float64(c) / 1e6 }

// String renders the amount with two decimals.
func (c Currency) String() string { return fmt.Sprintf("%.2f", c.Float()) }

// EntryKind classifies audit log entries.
type EntryKind string

// Audit entry kinds.
const (
	KindOpen     EntryKind = "open"
	KindDeposit  EntryKind = "deposit"
	KindWithdraw EntryKind = "withdraw"
	KindTransfer EntryKind = "transfer"
	KindEscrow   EntryKind = "escrow"
	KindRelease  EntryKind = "release"
	KindRefund   EntryKind = "refund"
	KindNote     EntryKind = "note"
)

// entryKinds are the audit entry kinds, in the order a packed audit record
// numbers them.
var entryKinds = [...]EntryKind{KindOpen, KindDeposit, KindWithdraw, KindTransfer, KindEscrow, KindRelease, KindRefund, KindNote}

// AuditEntry is one tamper-evident log record. Hash covers the previous
// entry's hash plus this entry's fields, forming a chain.
type AuditEntry struct {
	Seq      int
	Kind     EntryKind
	From, To string
	Amount   Currency
	Memo     string
	PrevHash string
	Hash     string
}

// sum is the SHA-256 of the entry's fields and prev, the previous entry's
// hash in hex, joined by '|': Seq and Amount (micro-units) in decimal, the
// strings verbatim — the bytes fmt's "%d|%s|%s|%s|%d|%s|%s" gives, built
// without fmt. The entry's own PrevHash and Hash are not read.
func (e *AuditEntry) sum(prev []byte) [sha256.Size]byte {
	var scratch [256]byte
	b := strconv.AppendInt(scratch[:0], int64(e.Seq), 10)
	b = append(append(b, '|'), e.Kind...)
	b = append(append(b, '|'), e.From...)
	b = append(append(b, '|'), e.To...)
	b = strconv.AppendInt(append(b, '|'), int64(e.Amount), 10)
	b = append(append(b, '|'), e.Memo...)
	b = append(append(b, '|'), prev...)
	return sha256.Sum256(b)
}

// chainHash is an entry's hash as the chain holds it. The zero value is the
// empty hash the first entry ever appended chains to.
type chainHash struct {
	sum [sha256.Size]byte
	ok  bool
}

// appendHex appends the hash in hex, or nothing for the empty hash.
func (h *chainHash) appendHex(dst []byte) []byte {
	if !h.ok {
		return dst
	}
	return hex.AppendEncode(dst, h.sum[:])
}

// appendAuditRecord appends the packed form of entry e, whose hash is sum, to
// dst — what the chain holds of it. Seq and the previous entry's hash follow
// from its place in the chain, so it holds neither:
//
//	hash    32 bytes
//	kind    1 byte, an index into entryKinds
//	from    uvarint length, then the bytes
//	to      uvarint length, then the bytes
//	amount  varint
//	memo    the record's remaining bytes
func appendAuditRecord(dst []byte, sum *[sha256.Size]byte, e *AuditEntry) []byte {
	kind := slices.Index(entryKinds[:], e.Kind)
	if kind < 0 {
		panic(fmt.Sprintf("ledger: audit entry kind %q", e.Kind))
	}
	dst = append(append(dst, sum[:]...), byte(kind))
	dst = append(binary.AppendUvarint(dst, uint64(len(e.From))), e.From...)
	dst = append(binary.AppendUvarint(dst, uint64(len(e.To))), e.To...)
	dst = binary.AppendVarint(dst, int64(e.Amount))
	return append(dst, e.Memo...)
}

// decodeAuditRecord is appendAuditRecord's inverse: it fills e's Kind, From,
// To, Amount and Memo and returns the hash. Records come from
// appendAuditRecord alone, so it does not check them.
func decodeAuditRecord(rec []byte, e *AuditEntry) (sum [sha256.Size]byte) {
	copy(sum[:], rec)
	e.Kind = entryKinds[rec[sha256.Size]]
	rec = rec[sha256.Size+1:]
	str := func() string {
		n, w := binary.Uvarint(rec)
		s := string(rec[w : w+int(n)])
		rec = rec[w+int(n):]
		return s
	}
	e.From = str()
	e.To = str()
	amount, w := binary.Varint(rec)
	e.Amount, e.Memo = Currency(amount), string(rec[w:])
	return sum
}

// Ledger is a concurrency-safe double-entry ledger with escrow accounts.
type Ledger struct {
	mu       sync.Mutex
	balances map[string]Currency
	escrow   map[string]Currency // escrow ID -> held amount
	escrowBy map[string]string   // escrow ID -> funding account
	// log is the newest retain.Windows.Audit audit entries, oldest first,
	// each packed into one record (appendAuditRecord): its hash as 32 bytes,
	// its fields, no pointer. entries counts every entry ever appended (the
	// next Seq), anchor is the hash of the last one dropped — what the oldest
	// retained entry chains to — and head the newest entry's (anchor while
	// the log is empty). The chain is a verification window, not the record
	// (that is the engine's event log): a restart begins a new one and
	// nothing reads old entries back. Log and VerifyChain decode it.
	log          retain.Ring
	entries      int
	anchor, head chainHash
	scratch      []byte
}

// New creates an empty ledger.
func New() *Ledger {
	return &Ledger{
		balances: map[string]Currency{},
		escrow:   map[string]Currency{},
		escrowBy: map[string]string{},
	}
}

func (l *Ledger) append(kind EntryKind, from, to string, amount Currency, memo string) {
	e := AuditEntry{Seq: l.entries, Kind: kind, From: from, To: to, Amount: amount, Memo: memo}
	var prev [2 * sha256.Size]byte
	sum := e.sum(l.head.appendHex(prev[:0]))
	l.scratch = appendAuditRecord(l.scratch[:0], &sum, &e)
	l.log.Push(l.scratch)
	l.head = chainHash{sum: sum, ok: true}
	l.entries++
	if l.log.Len() > retain.Sizes().Audit {
		copy(l.anchor.sum[:], l.log.Pop())
		l.anchor.ok = true
	}
}

// auditEntries decodes the retained audit entries, oldest first, and yields
// each with its hash; PrevHash and Hash are left empty. Caller holds l.mu.
func (l *Ledger) auditEntries(yield func(e *AuditEntry, sum *[sha256.Size]byte) bool) {
	seq := l.entries - l.log.Len()
	l.log.All(func(_ uint64, rec []byte) bool {
		e := AuditEntry{Seq: seq}
		sum := decodeAuditRecord(rec, &e)
		seq++
		return yield(&e, &sum)
	})
}

// Open creates an account with an initial balance. Opening an existing
// account is an error.
func (l *Ledger) Open(account string, initial Currency) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.balances[account]; ok {
		return fmt.Errorf("ledger: account %q already open", account)
	}
	l.balances[account] = initial
	l.append(KindOpen, "", account, initial, "open")
	return nil
}

// Balance returns the available (non-escrowed) balance.
func (l *Ledger) Balance(account string) Currency {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.balances[account]
}

// Exists reports whether an account is open. The engine uses it to fail
// buyer requests fast instead of letting them stall open forever when the
// settlement Hold would bounce.
func (l *Ledger) Exists(account string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.balances[account]
	return ok
}

// Deposit adds funds from outside the market.
func (l *Ledger) Deposit(account string, amount Currency) error {
	if amount < 0 {
		return fmt.Errorf("ledger: negative deposit %s", amount)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.balances[account]; !ok {
		return fmt.Errorf("ledger: account %q not open", account)
	}
	l.balances[account] += amount
	l.append(KindDeposit, "", account, amount, "deposit")
	return nil
}

// Withdraw removes funds from an account, taking them out of this ledger's
// supply. It is the outbound half of a cross-ledger movement: in a federated
// market the coordinator withdraws a settlement's remote seller cuts from the
// home shard and deposits the same micro-unit amounts on the sellers' shards,
// so the sum of every shard's TotalSupply is conserved even though each
// single ledger's supply changes.
func (l *Ledger) Withdraw(account string, amount Currency, memo string) error {
	if amount < 0 {
		return fmt.Errorf("ledger: negative withdrawal %s", amount)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.balances[account]; !ok {
		return fmt.Errorf("ledger: account %q not open", account)
	}
	if l.balances[account] < amount {
		return fmt.Errorf("ledger: %q has %s, cannot withdraw %s", account, l.balances[account], amount)
	}
	l.balances[account] -= amount
	l.append(KindWithdraw, account, "", amount, memo)
	return nil
}

// Transfer moves funds between accounts, failing on insufficient balance.
func (l *Ledger) Transfer(from, to string, amount Currency, memo string) error {
	if amount < 0 {
		return fmt.Errorf("ledger: negative transfer %s", amount)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.balances[from]; !ok {
		return fmt.Errorf("ledger: account %q not open", from)
	}
	if _, ok := l.balances[to]; !ok {
		return fmt.Errorf("ledger: account %q not open", to)
	}
	if l.balances[from] < amount {
		return fmt.Errorf("ledger: %q has %s, cannot transfer %s", from, l.balances[from], amount)
	}
	l.balances[from] -= amount
	l.balances[to] += amount
	l.append(KindTransfer, from, to, amount, memo)
	return nil
}

// Hold moves funds from an account into a named escrow. Ex-post mechanisms
// (paper §3.2.2.2) hold a deposit while the buyer evaluates the data.
func (l *Ledger) Hold(escrowID, from string, amount Currency, memo string) error {
	if amount < 0 {
		return fmt.Errorf("ledger: negative escrow %s", amount)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.balances[from]; !ok {
		return fmt.Errorf("ledger: account %q not open", from)
	}
	if _, ok := l.escrow[escrowID]; ok {
		return fmt.Errorf("ledger: escrow %q already held", escrowID)
	}
	if l.balances[from] < amount {
		return fmt.Errorf("ledger: %q has %s, cannot escrow %s", from, l.balances[from], amount)
	}
	l.balances[from] -= amount
	l.escrow[escrowID] = amount
	l.escrowBy[escrowID] = from
	l.append(KindEscrow, from, escrowID, amount, memo)
	return nil
}

// Release pays `amount` of the escrow to `to` and refunds the remainder to
// the funding account, closing the escrow.
func (l *Ledger) Release(escrowID, to string, amount Currency, memo string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	held, ok := l.escrow[escrowID]
	if !ok {
		return fmt.Errorf("ledger: escrow %q not held", escrowID)
	}
	if amount < 0 || amount > held {
		return fmt.Errorf("ledger: escrow %q holds %s, cannot release %s", escrowID, held, amount)
	}
	if _, ok := l.balances[to]; !ok {
		return fmt.Errorf("ledger: account %q not open", to)
	}
	funder := l.escrowBy[escrowID]
	l.balances[to] += amount
	refund := held - amount
	l.balances[funder] += refund
	delete(l.escrow, escrowID)
	delete(l.escrowBy, escrowID)
	l.append(KindRelease, escrowID, to, amount, memo)
	if refund > 0 {
		l.append(KindRefund, escrowID, funder, refund, "escrow refund")
	}
	return nil
}

// RestoreEscrow re-seeds an escrow entry from a snapshot without debiting
// the funding account. Snapshot balances are captured after the original
// Hold already moved the deposit out of the funder's balance, so the held
// amount exists nowhere else in the checkpoint; restore must recreate the
// escrow directly or the money would be destroyed.
func (l *Ledger) RestoreEscrow(escrowID, from string, amount Currency) error {
	if amount < 0 {
		return fmt.Errorf("ledger: negative escrow %s", amount)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.balances[from]; !ok {
		return fmt.Errorf("ledger: account %q not open", from)
	}
	if _, ok := l.escrow[escrowID]; ok {
		return fmt.Errorf("ledger: escrow %q already held", escrowID)
	}
	l.escrow[escrowID] = amount
	l.escrowBy[escrowID] = from
	l.append(KindEscrow, from, escrowID, amount, "escrow restored")
	return nil
}

// Escrowed returns the amount held in an escrow (0 when absent).
func (l *Ledger) Escrowed(escrowID string) Currency {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.escrow[escrowID]
}

// Note appends a free-form audit record (e.g. "mashup m7 delivered to b1").
func (l *Ledger) Note(memo string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.append(KindNote, "", "", 0, memo)
}

// Log returns a copy of the audit log: the newest entries only (at most
// retain.Windows.Audit), oldest first. AuditSize counts all ever appended; an
// entry's Seq is its position among them.
func (l *Ledger) Log() []AuditEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]AuditEntry, 0, l.log.Len())
	prev := string(l.anchor.appendHex(nil))
	l.auditEntries(func(e *AuditEntry, sum *[sha256.Size]byte) bool {
		e.PrevHash, e.Hash = prev, hex.EncodeToString(sum[:])
		out = append(out, *e)
		prev = e.Hash
		return true
	})
	return out
}

// AuditSize returns how many audit entries were ever appended and how many
// of them Log still holds.
func (l *Ledger) AuditSize() (total, held int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.entries, l.log.Len()
}

// VerifyChain recomputes the hash chain over the retained entries, starting
// from the anchor, and returns the Seq of the first corrupted entry, or -1
// when the window is an intact suffix of the chain. Buyers/sellers use this
// to audit the arbiter (paper §4.4 Transparency).
func (l *Ledger) VerifyChain() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	bad := -1
	prev := l.anchor
	l.auditEntries(func(e *AuditEntry, sum *[sha256.Size]byte) bool {
		var buf [2 * sha256.Size]byte
		if e.sum(prev.appendHex(buf[:0])) != *sum {
			bad = e.Seq
			return false
		}
		prev = chainHash{sum: *sum, ok: true}
		return true
	})
	return bad
}

// TotalSupply sums all balances plus escrowed funds. Conservation of money —
// the sum never changes except via Open/Deposit — is a market invariant the
// simulator asserts.
func (l *Ledger) TotalSupply() Currency {
	l.mu.Lock()
	defer l.mu.Unlock()
	var total Currency
	for _, b := range l.balances {
		total += b
	}
	for _, e := range l.escrow {
		total += e
	}
	return total
}

// Accounts returns all account names, sorted.
func (l *Ledger) Accounts() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.balances))
	for a := range l.balances {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}
