package dod

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/profile"
	"repro/internal/relation"
)

// TestCandidatesMatchGolden pins what Build returns across commits. Every
// fresh build of the footprint oracle's fixed seeds, and of a set of wants
// over the paper scenario, is digested — each candidate's datasets, plan,
// coverage, quality, name, schema and every cell, in order — and compared
// with testdata/candidates.golden. The oracle checks cached against fresh
// within one build of the code; this checks fresh against the code that
// wrote the golden, so a change to how a candidate is assembled (operator
// pipelines, the sub-join memo, column naming) cannot move one unnoticed.
// A deliberate change of output re-pins the line the failure prints.
func TestCandidatesMatchGolden(t *testing.T) {
	cat, eng := paperScenario(t)
	golden := readGolden(t, "testdata/candidates.golden")
	check := func(name string, run func(w io.Writer)) {
		h := sha256.New()
		run(h)
		got := fmt.Sprintf("%s %x", name, h.Sum(nil))
		if want := golden[name]; got != want {
			t.Errorf("candidate digest moved:\n got  %s\n want %s", got, want)
		}
	}
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8} {
		check(fmt.Sprintf("oracle-seed%d", seed), func(w io.Writer) { runFootprintOracle(t, seed, w) })
	}
	check("paper", func(w io.Writer) {
		wants := []Want{
			{Columns: []string{"a", "b"}},
			{Columns: []string{"a", "b", "d"}},
			{Columns: []string{"a", "b", "e"}},
			{Columns: []string{"a", "bee"}, Aliases: map[string][]string{"bee": {"b"}}},
			{Columns: []string{"zzz"}},
			{},
		}
		build := func() {
			for _, want := range wants {
				cands, err := eng.Build(want)
				writeCandidates(w, want, cands, err)
			}
		}
		build()
		inv, _, err := InferAffine("f_inverse", []float64{32, 50, 212}, []float64{0, 10, 100})
		if err != nil {
			t.Fatal(err)
		}
		eng.RegisterTransform("s2", "f_d", "d", inv)
		wants = append(wants, Want{Columns: []string{"d", "c", "b_prime"}}, Want{Columns: []string{"a", "d"}, MaxDatasets: 1})
		build()

		// s3 repeats s1's b, so joined after s1 its b arrives as b_r. A
		// transform from s3.b onto bt is registered, then s3 is re-shared
		// without the materialized bt: the build itself must map and rename
		// the suffixed column.
		s3 := relation.New("s3", relation.NewSchema(
			relation.Col("a", relation.KindInt),
			relation.Col("b", relation.KindFloat),
			relation.Col("g", relation.KindString),
		))
		for i := 0; i < 120; i++ {
			s3.MustAppend(relation.Int(int64(i)), relation.Float(float64(i)*0.5+1000), relation.String_(fmt.Sprintf("g%d", i)))
		}
		share := func(update bool) {
			eng.MutateCatalog("s3", func() bool {
				if update {
					if _, err := cat.Update("s3", s3, "drop bt"); err != nil {
						t.Fatal(err)
					}
				} else if err := cat.Register("s3", "seller3", s3); err != nil {
					t.Fatal(err)
				}
				eng.disc.Index().Add(profile.Profile("s3", s3))
				return true
			})
		}
		share(false)
		eng.RegisterTransform("s3", "b", "bt", oracleDouble)
		share(true)
		wants = []Want{
			{Columns: []string{"c", "bt"}},
			{Columns: []string{"a", "b", "bt"}},
			{Columns: []string{"g", "bt", "d"}},
		}
		build()
	})
}

func readGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			out[strings.Fields(line)[0]] = line
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// writeCandidates writes one build's outcome to w in a form that changes
// whenever anything a buyer or the arbiter sees of it does: the error text,
// then per candidate its datasets, plan, coverage and quality bits, name,
// schema and each cell's kind and length-framed key.
func writeCandidates(w io.Writer, want Want, cands []Candidate, err error) {
	fmt.Fprintf(w, "want %q %v %d %d err=%v\n", want.Columns, want.Aliases, want.MaxDatasets, want.MinRows, err)
	var buf []byte
	for _, c := range cands {
		rel := c.Rel()
		fmt.Fprintf(w, "cand %q %q %x %x %q %s %d\n", c.Datasets, c.Plan,
			math.Float64bits(c.Coverage), math.Float64bits(c.Quality), rel.Name, rel.Schema, len(rel.Rows))
		for _, row := range rel.Rows {
			buf = buf[:0]
			for _, v := range row {
				buf = append(buf, byte(v.Kind()))
				at := len(buf)
				buf = v.AppendKey(append(buf, 0, 0, 0, 0))
				binary.BigEndian.PutUint32(buf[at:], uint32(len(buf)-at-4))
			}
			w.Write(append(buf, '\n'))
		}
	}
}
