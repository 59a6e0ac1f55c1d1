package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/license"
	"repro/internal/relation"
	"repro/internal/retain"
	"repro/internal/wtp"
)

// codecCorpus is an event of every kind, with the payloads, cut maps and
// HTML-escaped strings the log's one encoding must reproduce byte for byte.
func codecCorpus(t testing.TB) []Event {
	rel := relation.New("s1/d<0>", relation.NewSchema(
		relation.Col("a", relation.KindInt), relation.Col("note", relation.KindString)))
	rel.MustAppend(relation.Int(1), relation.String_("a<b>&c"))
	rel.MustAppend(relation.Int(2), relation.String_(`quote " and \ slash`))
	want, fn := coverageRequest("b<1>", 150)
	spec, ok := core.EncodeRequest(want, fn)
	if !ok {
		t.Fatal("coverage request does not encode")
	}
	at := time.Date(2026, 3, 1, 12, 0, 0, 123456789, time.UTC)
	cuts := map[string]float64{"s1": 57.5, "s<2>": 37.5, "s&3": 0.25}
	evs := []Event{
		{Kind: EventEpochStart, Epoch: 1, At: at},
		{Kind: EventRegistered, Epoch: 1, Ticket: "sub-000001", Participant: "b<1>", Price: 5000},
		{Kind: EventDatasetShared, Epoch: 1, Ticket: "sub-000002", Participant: "s1", Dataset: "s1/d<0>",
			Payload: &Payload{Relation: rel, Meta: &wtp.DatasetMeta{Dataset: "s1/d<0>", UpdatedAt: at, Author: "a&b"},
				License: string(license.Exclusive), TaxRate: 0.125}},
		{Kind: EventRequestFiled, Epoch: 2, Ticket: "sub-000003", Participant: "b<1>", RequestID: "req-0001",
			Priority: 2, Payload: &Payload{Request: spec}},
		{Kind: EventRequestFiled, Epoch: 2, Ticket: "sub-000004", Participant: "b2", RequestID: "req-0002"},
		{Kind: EventRequestUnmet, Epoch: 2, Ticket: "sub-000004", RequestID: "req-0002"},
		{Kind: EventTxSettled, Epoch: 3, Ticket: "sub-000003", Participant: "b<1>", RequestID: "req-0001",
			TxID: "tx-0001", Price: 100, ArbiterCut: 5, SellerCuts: cuts, Satisfaction: 1,
			Datasets: []string{"s1/d<0>", "s2/d&1"}, ExPost: true, ExPostShares: map[string]float64{"s1": 0.6, "s<2>": 0.4},
			Note: "datasets=[s1/d<0>] satisfaction=1.00"},
		{Kind: EventRejected, Epoch: 3, Ticket: "sub-000005", SubKind: KindRequest, Priority: 1,
			Err: `engine: buyer "x<y>" is not registered`},
		{Kind: EventRequestRejected, Epoch: 3, Participant: "b<1>", Count: 7, Note: "quota & cap"},
		{Kind: EventRequestAged, Epoch: 4, Ticket: "sub-000004", RequestID: "req-0002", Age: 3},
		{Kind: EventValueReported, Epoch: 4, Ticket: "sub-000006", Participant: "b<1>", TxID: "tx-0001",
			Price: 480, ArbiterCut: 48, SellerCuts: cuts, Reported: 480, Audited: true, ExPost: true},
		{Kind: EventEpochEnd, Epoch: 4, UnmetColumns: map[string]int{"a": 2, "<b>": 1}, QuotaRefill: 0.5,
			Note: "matched=1 unmet=1"},
		{Kind: EventXTxPrepared, Epoch: 5, TxID: "xtx-000001", Participant: "b<1>", Price: 90},
		{Kind: EventXTxCommitted, Epoch: 5, TxID: "xtx-000001", XTxRole: XTxRoleHome, Price: 90,
			SellerCuts: cuts, RemoteCuts: map[string]float64{"s9": 40}},
		{Kind: EventXTxAborted, Epoch: 5, TxID: "xtx-000002"},
	}
	for i := range evs {
		evs[i].Seq = i + 1
		if evs[i].At.IsZero() {
			evs[i].At = at.Add(time.Duration(i) * time.Millisecond)
		}
	}
	return evs
}

// FuzzEventRecord pins the log's one encoding: for any event, the record a
// persister receives is json.Marshal's, byte for byte, and the wire form the
// log holds and serves decodes to the event without its payload. Inputs are
// events in JSON, normalized once through a round trip (an empty map decodes
// to one that omitempty then drops).
func FuzzEventRecord(f *testing.F) {
	for _, ev := range codecCorpus(f) {
		raw, err := json.Marshal(ev)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var in Event
		if json.Unmarshal(raw, &in) != nil {
			return
		}
		norm, err := json.Marshal(in)
		if err != nil {
			return
		}
		var ev Event
		if err := json.Unmarshal(norm, &ev); err != nil {
			t.Fatalf("marshalled event does not decode: %v", err)
		}
		want, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := Record(ev)
		if err != nil || !bytes.Equal(rec, want) {
			t.Fatalf("record differs from json.Marshal (%v):\n%s\n%s", err, rec, want)
		}
		wire, _, err := encode(ev, false)
		if err != nil {
			t.Fatal(err)
		}
		var back Event
		if err := json.Unmarshal(wire, &back); err != nil {
			t.Fatalf("wire form does not decode: %v\n%s", err, wire)
		}
		ev.Payload = nil
		if !reflect.DeepEqual(back, ev) {
			t.Fatalf("wire form decodes to another event:\n%+v\n%+v", back, ev)
		}
	})
}

// TestUnencodableEventWedges: an event that cannot be encoded (a NaN price)
// never reaches the persister, wedges a durable log with the encoding error
// — the one wal.Log.Persist gives for it too — and keeps its place in the
// log as a stand-in that says why it has no content.
func TestUnencodableEventWedges(t *testing.T) {
	store := &memPersister{}
	l := NewEventLog()
	l.SetPersister(store)
	l.Append(Event{Kind: EventEpochStart, Epoch: 1})
	l.Append(Event{Kind: EventTxSettled, Epoch: 1, TxID: "tx-0001", Price: math.NaN()})
	l.Append(Event{Kind: EventEpochEnd, Epoch: 1})
	persisted, perr := l.Persisted()
	var unsupported *json.UnsupportedValueError
	if persisted != 1 || !errors.As(perr, &unsupported) || !strings.Contains(perr.Error(), "encode event 2") {
		t.Fatalf("persisted %d, error %v; want 1 and the encoding error of event 2", persisted, perr)
	}
	if _, err := Record(Event{Seq: 2, Kind: EventTxSettled, Price: math.NaN()}); err == nil || err.Error() != perr.Error() {
		t.Fatalf("Record's error %v, the log's %v", err, perr)
	}
	if len(store.events) != 1 {
		t.Fatalf("persister got %d events, want only the one before the wedge", len(store.events))
	}
	evs := l.Since(0)
	if len(evs) != 3 || evs[1].Seq != 2 || evs[1].Kind != EventTxSettled || evs[1].Err != perr.Error() || evs[1].TxID != "" {
		t.Fatalf("log holds %+v; want seq 2 held as a stand-in carrying the error", evs)
	}
}

// TestSinceJSONIsTheEncodedEvents: /events' body for every cursor — inside
// the tail, below it (read back from the persister), past the head — is byte
// for byte what json.NewEncoder(w).Encode writes for the events past the
// cursor with their payloads dropped, and "[]" for none.
func TestSinceJSONIsTheEncodedEvents(t *testing.T) {
	defer retain.Shrink(func(w *retain.Windows) { w.EventTail, w.EventChunk = 8, 4 })()
	store := &memPersister{}
	l := NewEventLog()
	l.SetPersister(store)
	corpus := codecCorpus(t)
	for i := 0; i < 3; i++ {
		for _, ev := range corpus {
			l.Append(ev)
		}
	}
	// The corpus once more, backwards, so its payload-carrying events are in
	// the window: the log reads them back from the store with their payloads
	// and cuts the wire forms out.
	for _, ev := range slices.Backward(corpus) {
		l.Append(ev)
	}
	head := l.LastSeq()
	if h, _, _, _ := l.Held(); h >= head {
		t.Fatalf("the tail holds all %d events: no cursor reads back", head)
	}
	for after := 0; after <= head+2; after++ {
		evs := append([]Event{}, store.events[min(after, head):]...)
		for i := range evs {
			evs[i].Payload = nil
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(evs); err != nil {
			t.Fatal(err)
		}
		if got := l.SinceJSON(after); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("SinceJSON(%d):\n%s\nwant\n%s", after, got, want.Bytes())
		}
	}
	if _, _, n, _ := l.Held(); n == 0 {
		t.Fatal("no cursor was read back")
	}
}
