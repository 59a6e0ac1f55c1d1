package main

import (
	"flag"
	"strings"
	"testing"
)

// limitFlagSet declares the limit flags with the types main gives them.
func limitFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("dmgateway", flag.ContinueOnError)
	fs.Float64("quota-rps", 0, "")
	fs.Float64("quota-burst", 0, "")
	fs.Int("admit-cap", 0, "")
	fs.Int("max-pending", 0, "")
	fs.Int("epoch-cap", 0, "")
	fs.Int("dod-cache-entries", 0, "")
	fs.Duration("build-deadline", 0, "")
	fs.Int("allocator-exact-max", 0, "")
	fs.Float64("allocator-err", 0.05, "")
	return fs
}

// TestCheckLimits: every limit whose 0 means "off", and every allocator
// setting, accepts 0 and positive values and refuses a negative or
// non-finite one, naming the flag.
func TestCheckLimits(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		refused string // flag named in the error; "" = accepted
	}{
		{nil, ""},
		{[]string{"-quota-rps", "50", "-quota-burst", "100", "-admit-cap", "10", "-max-pending", "1000",
			"-epoch-cap", "64", "-dod-cache-entries", "256", "-build-deadline", "2s",
			"-allocator-exact-max", "8", "-allocator-err", "0.02"}, ""},
		{[]string{"-allocator-exact-max", "0", "-allocator-err", "0"}, ""},
		{[]string{"-quota-rps", "-0.5"}, "quota-rps"},
		{[]string{"-quota-burst", "-1"}, "quota-burst"},
		{[]string{"-admit-cap", "-1"}, "admit-cap"},
		{[]string{"-max-pending", "-1"}, "max-pending"},
		{[]string{"-epoch-cap", "-3"}, "epoch-cap"},
		{[]string{"-dod-cache-entries", "-1"}, "dod-cache-entries"},
		{[]string{"-build-deadline", "-1ms"}, "build-deadline"},
		{[]string{"-quota-rps", "NaN"}, "quota-rps"},
		{[]string{"-quota-rps", "+Inf"}, "quota-rps"},
		{[]string{"-quota-rps", "-Inf"}, "quota-rps"},
		{[]string{"-quota-burst", "NaN"}, "quota-burst"},
		{[]string{"-quota-burst", "+Inf"}, "quota-burst"},
		{[]string{"-allocator-exact-max", "-1"}, "allocator-exact-max"},
		{[]string{"-allocator-err", "-0.1"}, "allocator-err"},
		{[]string{"-allocator-err", "NaN"}, "allocator-err"},
		{[]string{"-allocator-err", "+Inf"}, "allocator-err"},
	} {
		fs := limitFlagSet()
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		err := checkLimits(fs)
		switch {
		case tc.refused == "" && err != nil:
			t.Errorf("%v refused: %v", tc.args, err)
		case tc.refused != "" && (err == nil || !strings.Contains(err.Error(), "-"+tc.refused+" ")):
			t.Errorf("%v: err = %v, want -%s refused", tc.args, err, tc.refused)
		}
	}
}

// TestQuotaOverrideRefusesNonFinite: an override rate or burst must be a
// finite number >= 0, like the global quota flags.
func TestQuotaOverrideRefusesNonFinite(t *testing.T) {
	for _, spec := range []string{"a=-1", "a=NaN", "a=+Inf", "a=1:-1", "a=1:NaN", "a=1:+Inf"} {
		var q quotaOverrideFlag
		if err := q.Set(spec); err == nil {
			t.Errorf("-quota-override %s accepted", spec)
		}
	}
	var q quotaOverrideFlag
	if err := q.Set("a=0:5"); err != nil {
		t.Errorf("-quota-override a=0:5 refused: %v", err)
	}
}
