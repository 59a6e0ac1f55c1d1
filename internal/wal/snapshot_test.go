package wal

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/engine"
)

// TestTicketCodecCoversEveryField: appendTicket/decodeTicket round-trip
// tickets whose every field — found by reflection, so a field added to
// engine.Ticket later is covered too — holds a random value, extremes and
// the empty string included.
func TestTicketCodecCoversEveryField(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	strs := []string{"", "sub-000001", "ü→市", "\xff\x00", "engine: buyer \"ghost\" is not registered"}
	for i := 0; i < 500; i++ {
		var want engine.Ticket
		v := reflect.ValueOf(&want).Elem()
		for f := 0; f < v.NumField(); f++ {
			switch fv := v.Field(f); fv.Kind() {
			case reflect.String:
				fv.SetString(strs[rng.Intn(len(strs))])
			case reflect.Uint64:
				fv.SetUint([]uint64{0, 1, math.MaxUint64, rng.Uint64()}[rng.Intn(4)])
			case reflect.Int:
				fv.SetInt([]int64{0, -1, math.MinInt64, math.MaxInt64, rng.Int63()}[rng.Intn(5)])
			case reflect.Float64:
				fv.SetFloat([]float64{0, 100, -0.5, 123.45, math.MaxFloat64, rng.NormFloat64()}[rng.Intn(6)])
			default:
				t.Fatalf("engine.Ticket.%s is a %s: teach appendTicket and this test about it", v.Type().Field(f).Name, fv.Kind())
			}
		}
		var got engine.Ticket
		if err := decodeTicket(appendTicket(nil, &want), &got); err != nil || got != want {
			t.Fatalf("ticket %+v decodes to %+v (%v)", want, got, err)
		}
	}
}
