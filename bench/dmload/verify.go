package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	"repro/bench/workloads"
)

// marketState is what the verify phase reads back from a gateway over HTTP,
// once before the SIGKILL and once after the reboot.
type marketState struct {
	events       int
	matched      uint64
	xtxCommitted uint64
	conserved    bool
	settlements  int
	// streamHash fingerprints the sorted settlement stream: /settlements
	// entries on a single arbiter, xtx-committed records on a federation
	// (whose cross-shard settlements appear in no shard's book).
	streamHash string
	// xtx are the federation's xtx-committed records; balances the summed
	// /balance of every account. Both stay empty on a single arbiter.
	xtx      []event
	balances float64
	// arbiterCuts sums arbiter_cut over home-leg commits: the arbiter's
	// accounts are per shard and not addressable through /balance.
	arbiterCuts float64
}

type statsView struct {
	Matched    uint64 `json:"matched"`
	Events     int    `json:"events"`
	Federation struct {
		XTxCommitted uint64 `json:"xtx_committed"`
	} `json:"federation"`
}

type settlementsView struct {
	Settlements []struct {
		TxID       string             `json:"tx_id"`
		Buyer      string             `json:"buyer"`
		Price      float64            `json:"price"`
		ArbiterCut float64            `json:"arbiter_cut"`
		SellerCuts map[string]float64 `json:"seller_cuts"`
	} `json:"settlements"`
	Conserved bool `json:"conserved"`
}

// xtxEvent widens event with the money fields of a commit record.
type xtxEvent struct {
	event
	Price      float64            `json:"price"`
	ArbiterCut float64            `json:"arbiter_cut"`
	SellerCuts map[string]float64 `json:"seller_cuts"`
}

func cutsString(cuts map[string]float64) string {
	names := make([]string, 0, len(cuts))
	for n := range cuts {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s=%.6f,", n, cuts[n])
	}
	return b.String()
}

func hashLines(lines []string) string {
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// captureState reads a gateway's market back. settled is how many
// settlements the client has observed: the gateway's own views trail its
// event log for a moment (the settlement book is folded by a subscriber
// goroutine, the coordinator counts a commit after the ticket turns done), so
// the read is repeated for up to two seconds until they have caught up.
func captureState(base string, sc *workloads.Script, settled int) (*marketState, error) {
	c := newClient(1)
	defer c.CloseIdleConnections()
	var st statsView
	var sv settlementsView
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if err := getJSON(c, base+"/engine/stats", &st); err != nil {
			return nil, err
		}
		if err := getJSON(c, base+"/settlements", &sv); err != nil {
			return nil, err
		}
		caughtUp := len(sv.Settlements) >= settled
		if sc.Spec.Shards > 1 {
			caughtUp = st.Federation.XTxCommitted >= uint64(settled)
		}
		if caughtUp || time.Now().After(deadline) {
			break
		}
	}
	ms := &marketState{events: st.Events, matched: st.Matched, xtxCommitted: st.Federation.XTxCommitted,
		conserved: sv.Conserved, settlements: len(sv.Settlements)}
	var lines []string
	for _, s := range sv.Settlements {
		lines = append(lines, fmt.Sprintf("%s|%s|%.6f|%.6f|%s", s.TxID, s.Buyer, s.Price, s.ArbiterCut, cutsString(s.SellerCuts)))
	}
	if sc.Spec.Shards > 1 {
		for shard := 0; shard < sc.Spec.Shards; shard++ {
			var evs []xtxEvent
			if err := getJSON(c, fmt.Sprintf("%s/events?shard=%d", base, shard), &evs); err != nil {
				return nil, err
			}
			for _, ev := range evs {
				if ev.Kind != "xtx-committed" {
					continue
				}
				ms.xtx = append(ms.xtx, ev.event)
				if ev.XTxRole == "home" {
					ms.arbiterCuts += ev.ArbiterCut
				}
				lines = append(lines, fmt.Sprintf("%s|%s|%.6f|%.6f|%s|%s", ev.TxID, ev.XTxRole, ev.Price,
					ev.ArbiterCut, cutsString(ev.SellerCuts), cutsString(ev.RemoteCuts)))
			}
		}
		for _, name := range sc.Accounts {
			var bal struct {
				Balance float64 `json:"balance"`
			}
			if err := getJSON(c, base+"/balance?account="+url.QueryEscape(name), &bal); err != nil {
				return nil, err
			}
			ms.balances += bal.Balance
		}
	}
	ms.streamHash = hashLines(lines)
	return ms, nil
}

// verify checks the run's outputs and returns one line per violated
// invariant (none = correct). recs are the client's records of every op of
// the pass, warm-up included.
func verify(sc *workloads.Script, obs observer, recs []sent, before, after *marketState) []string {
	var bad []string
	fail := func(format string, args ...any) {
		if len(bad) < 20 { // a systematic failure would otherwise print one line per request
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}

	// Every accepted request settled exactly once, with a mashup that covers
	// the wanted columns from the designed number of sources. The observers
	// drop a second outcome for a ticket, so "once" is checked on tx ids and
	// against the gateway's own counts below.
	settled := 0
	txSeen := map[string]bool{}
	for i := range recs {
		r := &recs[i]
		if r.op.Group < 0 || r.code != http.StatusAccepted {
			continue
		}
		o, ok := obs.outcome(r.ticket)
		if !ok || o.failed {
			continue // counted in failed; not a correctness violation by itself
		}
		settled++
		if o.txID == "" || txSeen[o.txID] {
			fail("ticket %s settled with missing or repeated tx_id %q", r.ticket, o.txID)
		}
		txSeen[o.txID] = true
		if sc.Spec.Shards > 1 {
			continue // coordinator tickets do not list their datasets
		}
		if msg := checkMashup(sc, r.op.Group, o.datasets); msg != "" {
			fail("ticket %s: %s", r.ticket, msg)
		}
	}
	if before.matched != uint64(settled) {
		fail("gateway counts %d matches, the client observed %d settlements", before.matched, settled)
	}
	if !before.conserved {
		fail("/settlements reports conserved=false")
	}

	if sc.Spec.Shards == 1 {
		if before.settlements != settled {
			fail("/settlements lists %d entries for %d settlements", before.settlements, settled)
		}
		if before.xtxCommitted != 0 {
			fail("single arbiter reports %d cross-shard commits", before.xtxCommitted)
		}
	} else {
		if before.xtxCommitted != uint64(settled) {
			fail("xtx_committed is %d, settled %d", before.xtxCommitted, settled)
		}
		homeLegs := 0
		for _, ev := range before.xtx {
			if ev.XTxRole != "home" {
				continue
			}
			homeLegs++
			if len(ev.RemoteCuts) == 0 {
				fail("home-leg commit %s carries no remote_cuts", ev.TxID)
			}
		}
		if homeLegs != settled {
			fail("%d home-leg commits for %d settlements", homeLegs, settled)
		}
		if total := before.balances + before.arbiterCuts; math.Abs(total-sc.Funded) > 1e-3 {
			fail("funds not conserved: accounts %.4f + arbiter cuts %.4f != funded %.4f",
				before.balances, before.arbiterCuts, sc.Funded)
		}
	}

	// Replay: the rebooted gateway must hold the same market.
	if after.matched != before.matched {
		fail("matched %d before the kill, %d after replay", before.matched, after.matched)
	}
	if after.xtxCommitted != before.xtxCommitted {
		fail("xtx_committed %d before the kill, %d after replay", before.xtxCommitted, after.xtxCommitted)
	}
	if after.streamHash != before.streamHash {
		fail("settlement stream changed across replay (%d -> %d entries)", before.settlements, after.settlements)
	}
	if !after.conserved {
		fail("/settlements reports conserved=false after replay")
	}
	return bad
}

// checkMashup checks one settlement's dataset list against its want group:
// the provider of every wanted column is present, and a workload designed
// for single-source mashups lists exactly one dataset.
func checkMashup(sc *workloads.Script, group int, datasets []string) string {
	have := map[string]bool{}
	for _, d := range datasets {
		have[d] = true
	}
	for _, col := range sc.Groups[group] {
		if p, ok := sc.Providers[col]; ok && !have[p] {
			return fmt.Sprintf("mashup %v lacks %s, the provider of %s", datasets, p, col)
		}
	}
	if sc.Spec.Sources == 1 && len(datasets) != 1 {
		return fmt.Sprintf("mashup %v has %d datasets, want exactly 1", datasets, len(datasets))
	}
	if len(datasets) < sc.Spec.Sources {
		return fmt.Sprintf("mashup %v has %d datasets, want at least %d", datasets, len(datasets), sc.Spec.Sources)
	}
	return ""
}
