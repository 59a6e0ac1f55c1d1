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
	return fs
}

// TestCheckLimits: every limit whose 0 means "off" accepts 0 and positive
// values and refuses a negative one, naming the flag.
func TestCheckLimits(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		refused string // flag named in the error; "" = accepted
	}{
		{nil, ""},
		{[]string{"-quota-rps", "50", "-quota-burst", "100", "-admit-cap", "10", "-max-pending", "1000",
			"-epoch-cap", "64", "-dod-cache-entries", "256", "-build-deadline", "2s"}, ""},
		{[]string{"-quota-rps", "-0.5"}, "quota-rps"},
		{[]string{"-quota-burst", "-1"}, "quota-burst"},
		{[]string{"-admit-cap", "-1"}, "admit-cap"},
		{[]string{"-max-pending", "-1"}, "max-pending"},
		{[]string{"-epoch-cap", "-3"}, "epoch-cap"},
		{[]string{"-dod-cache-entries", "-1"}, "dod-cache-entries"},
		{[]string{"-build-deadline", "-1ms"}, "build-deadline"},
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
