package retain

import (
	"bytes"
	"testing"
)

// TestRing: records of many sizes pushed and popped through a ring keep
// their positions and bytes across the ring's growth and compactions; All
// lists the held ones oldest first, and the slice stays within a quarter, and
// a record, of the bytes held.
func TestRing(t *testing.T) {
	var r Ring
	type held struct {
		pos uint64
		rec []byte
	}
	var want []held
	for i := 0; i < 20000; i++ {
		rec := bytes.Repeat([]byte{byte(i)}, i%300)
		want = append(want, held{r.Push(rec), rec})
		if len(want) > 1000+i%500 {
			if got := r.Pop(); !bytes.Equal(got, want[0].rec) {
				t.Fatalf("push %d: popped %d bytes, want the oldest's %d", i, len(got), len(want[0].rec))
			}
			want = want[1:]
		}
		if i%997 == 0 {
			size := 0
			for j, h := range want {
				if !bytes.Equal(r.At(h.pos), h.rec) {
					t.Fatalf("push %d: record %d at %d reads %d bytes, want %d", i, j, h.pos, len(r.At(h.pos)), len(h.rec))
				}
				size += len(h.rec) + 2
			}
			if cap(r.buf) > size+size/4+300 {
				t.Fatalf("push %d: the ring's slice holds %d bytes for %d", i, cap(r.buf), size)
			}
		}
	}
	j := 0
	r.All(func(pos uint64, rec []byte) bool {
		if pos != want[j].pos || !bytes.Equal(rec, want[j].rec) {
			t.Fatalf("All lists record %d at %d, want %d", j, pos, want[j].pos)
		}
		j++
		return true
	})
	if j != len(want) || r.Len() != len(want) || r.Front() != want[0].pos {
		t.Fatalf("All listed %d, Len %d, Front %d; want %d from %d", j, r.Len(), r.Front(), len(want), want[0].pos)
	}
	for range want {
		r.Pop()
	}
	if r.Len() != 0 || r.Pop() != nil || len(r.buf) != 0 {
		t.Fatalf("an emptied ring holds %d records, %d bytes", r.Len(), len(r.buf))
	}
}
