package matrix

import (
	"fmt"
	"reflect"
	"testing"
)

// Element recycling is host-side memory reuse only: a matrix whose rows
// come from the free list must charge exactly what a fresh one charges.

// callSink records every cost call in order.
type callSink struct{ calls []string }

func (c *callSink) ChargeTouch(b int64)    { c.calls = append(c.calls, fmt.Sprintf("touch %d", b)) }
func (c *callSink) AdjustResident(d int64) { c.calls = append(c.calls, fmt.Sprintf("resident %d", d)) }

// recycleScript exercises every call that builds, replaces or drops rows.
func recycleScript(s *Sparse) {
	for g := 0; g < 8; g++ {
		for k := 0; k <= g%3; k++ {
			s.Append(g, int32(k), float64(g*10+k))
		}
	}
	s.ClearRow(3)
	s.Append(3, 7, 7.5)
	s.UnpackRow(1, PackedRow{Cols: []int32{1, 2, 3, 4}, Vals: []float64{1, 2, 3, 4}})
	var p PackedRows
	s.PackRowsTo(&p, 4, 7)
	s.UnpackRows(0, &p)
	s.ClearRow(5)
	s.SetWindow(2, 10)
	s.Append(9, 1, 1)
	s.UnpackRow(9, PackedRow{Cols: []int32{5, 6}, Vals: []float64{5, 6}})
	s.SetWindow(0, 6)
}

// rowContents renders the resident window row by row.
func rowContents(s *Sparse) string {
	out := ""
	for g := s.Lo(); g < s.Hi(); g++ {
		out += fmt.Sprintf("%d:", g)
		for e := s.RowHead(g); e != nil; e = e.Next() {
			out += fmt.Sprintf(" (%d,%v)", e.Col, e.Val)
		}
		out += "\n"
	}
	return out
}

func TestRecycledMatrixChargesLikeFresh(t *testing.T) {
	fresh, freshSink := NewSparse("M", 12, nil), &callSink{}
	fresh.SetWindow(0, 10)
	fresh.sink = freshSink

	churned, churnSink := NewSparse("M", 12, nil), &callSink{}
	churned.SetWindow(0, 10)
	for round := 0; round < 3; round++ {
		recycleScript(churned)
		churned.SetWindow(0, 10)
		for g := 0; g < 10; g++ {
			churned.ClearRow(g)
		}
	}
	if churned.free == nil {
		t.Fatal("churn left no recycled elements; the test exercises nothing")
	}
	churned.sink = churnSink

	recycleScript(fresh)
	recycleScript(churned)
	if !reflect.DeepEqual(freshSink.calls, churnSink.calls) {
		t.Fatalf("recycled matrix charged\n%v\nfresh matrix charged\n%v", churnSink.calls, freshSink.calls)
	}
	if got, want := rowContents(churned), rowContents(fresh); got != want {
		t.Fatalf("recycled matrix holds\n%swant\n%s", got, want)
	}
}

func TestSetWindowDoesNotRecycleDroppedRows(t *testing.T) {
	s := buildSparse(t, 10)
	s.SetWindow(4, 10)
	if s.free != nil {
		t.Fatal("SetWindow recycled the elements of dropped rows")
	}
	n := s.RowLen(6)
	s.ClearRow(6)
	got := 0
	for e := s.free; e != nil; e = e.next {
		got++
	}
	if got != n {
		t.Fatalf("ClearRow recycled %d elements, row held %d", got, n)
	}
}

func TestWarmRowRewriteAllocatesNothing(t *testing.T) {
	s := NewSparse("M", 1, &recordSink{})
	s.SetWindow(0, 1)
	for k := 0; k < 256; k++ {
		s.Append(0, int32(k), float64(k))
	}
	allocs := testing.AllocsPerRun(100, func() {
		s.ClearRow(0)
		for k := 0; k < 256; k++ {
			s.Append(0, int32(k), float64(k))
		}
	})
	if allocs != 0 {
		t.Fatalf("warm ClearRow + Append allocates %v per rewrite", allocs)
	}
}

func TestWarmUnpackRowsAllocatesNothing(t *testing.T) {
	src := buildBulkSparse(nil)
	var p PackedRows
	src.PackRowsTo(&p, 2, 8)
	dst := NewSparse("D", src.GlobalRows, &recordSink{})
	dst.SetWindow(0, src.GlobalRows)
	// Every destination row starts with at least as many elements as the
	// batch row that replaces it.
	for i := 0; i < p.Rows(); i++ {
		for k := int32(0); k < p.Starts[i+1]-p.Starts[i]+1; k++ {
			dst.Append(2+i, k, 0)
		}
	}
	allocs := testing.AllocsPerRun(100, func() { dst.UnpackRows(2, &p) })
	if allocs != 0 {
		t.Fatalf("warm UnpackRows allocates %v per batch", allocs)
	}
}
