package matrix

import "fmt"

// Elem is one stored element of a sparse row: a (column id, value) pair in
// a singly linked list, exactly the paper's vector-of-lists format.
//
// ClearRow, UnpackRow and UnpackRows recycle a row's elements into later
// Appends and unpacks, so an *Elem into a cleared or replaced row is
// invalid afterwards, as after free() in the paper's C lists.
type Elem struct {
	Col  int32
	Val  float64
	next *Elem
}

// Next returns the following element in the row, or nil.
func (e *Elem) Next() *Elem { return e.next }

// sparseRow is one linked-list extended row.
type sparseRow struct {
	head, tail *Elem
	n          int
}

// push links e at the end of the row.
func (r *sparseRow) push(e *Elem) {
	if r.tail == nil {
		r.head = e
	} else {
		r.tail.next = e
	}
	r.tail = e
	r.n++
}

// elemWireBytes is the modelled wire/memory footprint of one packed sparse
// element (8-byte value + 4-byte column id).
const elemWireBytes = 12

// Sparse is one rank's resident window of a row-distributed sparse matrix
// stored as a vector of lists. Elements within a row are kept in insertion
// order; builders that insert by ascending column get sorted rows for free.
type Sparse struct {
	Name       string
	GlobalRows int

	sink CostSink

	lo, hi int
	rows   []sparseRow // rows[g-lo] is global row g

	// free chains the elements of cleared and replaced rows through next,
	// for reuse by Append and the unpacks. Rows SetWindow drops are left
	// to the garbage collector instead.
	free *Elem
}

// NewSparse creates an empty sparse matrix descriptor; call SetWindow to
// make rows resident. sink may be nil.
func NewSparse(name string, globalRows int, sink CostSink) *Sparse {
	if globalRows <= 0 {
		panic(fmt.Sprintf("matrix: bad sparse rows %d", globalRows))
	}
	return &Sparse{Name: name, GlobalRows: globalRows, sink: sink}
}

// Lo returns the first resident global row.
func (s *Sparse) Lo() int { return s.lo }

// Hi returns one past the last resident global row.
func (s *Sparse) Hi() int { return s.hi }

// Resident reports whether global row g is resident.
func (s *Sparse) Resident(g int) bool { return g >= s.lo && g < s.hi }

// row returns global row g. It stays small enough to inline into the
// per-element paths; the panic message is built out of line.
func (s *Sparse) row(g int) *sparseRow {
	if g < s.lo || g >= s.hi {
		s.outsideWindow(g)
	}
	return &s.rows[g-s.lo]
}

//go:noinline
func (s *Sparse) outsideWindow(g int) {
	panic(fmt.Sprintf("matrix: %s sparse row %d outside window [%d,%d)", s.Name, g, s.lo, s.hi))
}

// SetWindow resizes the resident window to [lo,hi), retaining overlapping
// rows. Like the dense Projection scheme, only the top-level vector is
// copied; list nodes of retained rows are reused in place. Dropped rows are
// not recycled: their elements go to the garbage collector.
func (s *Sparse) SetWindow(lo, hi int) {
	if lo < 0 || hi > s.GlobalRows || lo > hi {
		panic(fmt.Sprintf("matrix: %s bad window [%d,%d) of %d", s.Name, lo, hi, s.GlobalRows))
	}
	oldLo, oldHi, oldRows := s.lo, s.hi, s.rows
	newRows := make([]sparseRow, hi-lo)
	var dropped int64
	for g := oldLo; g < oldHi; g++ {
		r := oldRows[g-oldLo]
		if g >= lo && g < hi {
			newRows[g-lo] = r
		} else {
			dropped += int64(r.n)
		}
	}
	if s.sink != nil {
		s.sink.AdjustResident(-dropped * elemWireBytes)
		s.sink.ChargeTouch(int64(hi-lo) * 8) // top-level vector copy
	}
	s.lo, s.hi, s.rows = lo, hi, newRows
}

// newElem returns a (col, val) element, recycled when the free list has
// one.
func (s *Sparse) newElem(col int32, val float64) *Elem {
	e := s.free
	if e == nil {
		return &Elem{Col: col, Val: val}
	}
	s.free = e.next
	e.Col, e.Val, e.next = col, val, nil
	return e
}

// recycle splices row r's whole chain onto the free list in O(1) and
// empties the row.
func (s *Sparse) recycle(r *sparseRow) {
	if r.head != nil {
		r.tail.next = s.free
		s.free = r.head
	}
	r.head, r.tail, r.n = nil, nil, 0
}

// Append adds (col, val) at the end of global row g.
func (s *Sparse) Append(g int, col int32, val float64) {
	r := s.row(g)
	r.push(s.newElem(col, val))
	if s.sink != nil {
		s.sink.AdjustResident(elemWireBytes)
		s.sink.ChargeTouch(elemWireBytes)
	}
}

// RowLen reports the number of stored elements in global row g.
func (s *Sparse) RowLen(g int) int { return s.row(g).n }

// RowHead returns the first element of global row g (nil if empty), for
// direct traversal when the iterator API is unnecessarily heavy. The chain
// is valid until the row is cleared or replaced (see Elem).
func (s *Sparse) RowHead(g int) *Elem { return s.row(g).head }

// NNZ reports the number of stored elements in the resident window.
func (s *Sparse) NNZ() int {
	total := 0
	for _, r := range s.rows {
		total += r.n
	}
	return total
}

// RowWireBytes is the modelled packed size of global row g.
func (s *Sparse) RowWireBytes(g int) int { return 8 + elemWireBytes*s.RowLen(g) }

// --- the paper's iterator API (§2.2) --------------------------------------

// Iter walks a sparse matrix element by element with explicit row control:
// "an iterator to access each element of a sparse matrix as well as
// functions to get the next element, set the next element, advance the row,
// and move to the first element." ClearRow, UnpackRow and UnpackRows
// recycle the row's elements, so an Iter positioned in a cleared or
// replaced row is invalid afterwards (see Elem).
type Iter struct {
	s   *Sparse
	g   int
	cur *Elem
}

// NewIter returns an iterator positioned at the first element of the first
// resident row (MoveToFirst).
func (s *Sparse) NewIter() *Iter {
	it := &Iter{s: s}
	it.MoveToFirst()
	return it
}

// MoveToFirst repositions at the first element of the first resident row.
func (it *Iter) MoveToFirst() {
	it.g = it.s.lo
	if it.s.lo < it.s.hi {
		it.cur = it.s.row(it.s.lo).head
	} else {
		it.cur = nil
	}
}

// Row reports the global row the iterator is positioned in.
func (it *Iter) Row() int { return it.g }

// Valid reports whether the iterator points at an element of the current row.
func (it *Iter) Valid() bool { return it.cur != nil }

// Elem returns the current element; nil at end of row.
func (it *Iter) Elem() *Elem { return it.cur }

// NextElem advances within the current row and returns the new element
// (nil when the row is exhausted).
func (it *Iter) NextElem() *Elem {
	if it.cur != nil {
		it.cur = it.cur.next
	}
	return it.cur
}

// SetVal overwrites the current element's value ("set the next element").
func (it *Iter) SetVal(v float64) {
	if it.cur == nil {
		panic("matrix: SetVal on exhausted iterator")
	}
	it.cur.Val = v
}

// AdvanceRow moves to the beginning of the next resident row, reporting
// false when no rows remain.
func (it *Iter) AdvanceRow() bool {
	it.g++
	if it.g >= it.s.hi {
		it.cur = nil
		return false
	}
	it.cur = it.s.row(it.g).head
	return true
}

// --- packing for transport (§4.4) ------------------------------------------

// PackedRow is a sparse row converted to vectors for transmission: "when a
// row is sent from one node to another, it must be packed into a vector".
type PackedRow struct {
	Cols []int32
	Vals []float64
}

// WireBytes reports the modelled transport size of the packed row.
func (p PackedRow) WireBytes() int { return 8 + elemWireBytes*len(p.Vals) }

// PackRow converts global row g to vectors, charging the copy cost.
func (s *Sparse) PackRow(g int) PackedRow {
	r := s.row(g)
	p := PackedRow{Cols: make([]int32, 0, r.n), Vals: make([]float64, 0, r.n)}
	for e := r.head; e != nil; e = e.next {
		p.Cols = append(p.Cols, e.Col)
		p.Vals = append(p.Vals, e.Val)
	}
	if s.sink != nil {
		s.sink.ChargeTouch(int64(elemWireBytes * r.n))
	}
	return p
}

// UnpackRow replaces global row g with the packed data, rebuilding the
// linked list ("the row must be unpacked on receipt and converted to a
// list") and charging the conversion cost. The row's old elements are
// recycled.
func (s *Sparse) UnpackRow(g int, p PackedRow) {
	if len(p.Cols) != len(p.Vals) {
		panic("matrix: ragged PackedRow")
	}
	r := s.row(g)
	if s.sink != nil {
		s.sink.AdjustResident(int64(elemWireBytes * (len(p.Vals) - r.n)))
		s.sink.ChargeTouch(int64(elemWireBytes * len(p.Vals)))
	}
	s.recycle(r)
	for i := range p.Vals {
		r.push(s.newElem(p.Cols[i], p.Vals[i]))
	}
}

// PackedRows is a batch of consecutive sparse rows packed into three flat
// vectors for one bulk transfer: row r (0-based within the batch) occupies
// Cols/Vals[Starts[r]:Starts[r+1]]. It replaces a []PackedRow payload with a
// single reusable allocation.
type PackedRows struct {
	Starts []int32 // len rows+1, prefix offsets into Cols/Vals
	Cols   []int32
	Vals   []float64
}

// Rows reports the number of packed rows.
func (p *PackedRows) Rows() int { return len(p.Starts) - 1 }

// WireBytes reports the modelled transport size: identical, byte for byte,
// to the sum of the per-row PackedRow.WireBytes values.
func (p *PackedRows) WireBytes() int { return 8*p.Rows() + elemWireBytes*len(p.Vals) }

// Reset empties the batch for reuse, keeping the backing arrays.
func (p *PackedRows) Reset() {
	p.Starts, p.Cols, p.Vals = p.Starts[:0], p.Cols[:0], p.Vals[:0]
}

// PackRowsTo appends global rows [lo,hi) to the batch, charging exactly the
// per-row PackRow cost (one elemWireBytes*n touch per row, in row order).
func (s *Sparse) PackRowsTo(p *PackedRows, lo, hi int) {
	if len(p.Starts) == 0 {
		p.Starts = append(p.Starts, 0)
	}
	for g := lo; g < hi; g++ {
		r := s.row(g)
		for e := r.head; e != nil; e = e.next {
			p.Cols = append(p.Cols, e.Col)
			p.Vals = append(p.Vals, e.Val)
		}
		p.Starts = append(p.Starts, int32(len(p.Vals)))
		if s.sink != nil {
			s.sink.ChargeTouch(int64(elemWireBytes * r.n))
		}
	}
}

// UnpackRows replaces global rows [lo, lo+p.Rows()) with the batch contents,
// rebuilding each linked list with exactly the per-row UnpackRow cost
// (resident-size adjustment plus one conversion touch per row, in row
// order). The rows' old elements are recycled.
func (s *Sparse) UnpackRows(lo int, p *PackedRows) {
	if len(p.Cols) != len(p.Vals) {
		panic("matrix: ragged PackedRows")
	}
	for i := 0; i < p.Rows(); i++ {
		r := s.row(lo + i)
		start, end := int(p.Starts[i]), int(p.Starts[i+1])
		if s.sink != nil {
			s.sink.AdjustResident(int64(elemWireBytes * (end - start - r.n)))
			s.sink.ChargeTouch(int64(elemWireBytes * (end - start)))
		}
		s.recycle(r)
		for j := start; j < end; j++ {
			r.push(s.newElem(p.Cols[j], p.Vals[j]))
		}
	}
}

// ClearRow empties global row g and recycles its elements into later
// Appends and unpacks, so every *Elem and Iter into the row is invalid
// afterwards, as after free() in the paper's C lists.
func (s *Sparse) ClearRow(g int) {
	r := s.row(g)
	if s.sink != nil {
		s.sink.AdjustResident(int64(-elemWireBytes * r.n))
	}
	s.recycle(r)
}
