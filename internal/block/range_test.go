package block

import (
	"slices"
	"testing"
)

// TestNormalizeRangesMarks: runs of one mark merge as unmarked runs
// always have; a block any marked run covers comes out marked, so a
// marked run and an unmarked one that overlap or touch split where the
// marked blocks begin and end, and a merged run is marked only if every
// block of it came from a marked run.
func TestNormalizeRangesMarks(t *testing.T) {
	const total = 100
	u := func(start, count uint64) Range { return Range{Start: start, Count: count} }
	m := func(start, count uint64) Range { return Range{Start: start, Count: count, Dirty: true} }
	for _, tc := range []struct {
		name string
		in   []Range
		want []Range
	}{
		{"none", nil, []Range{}},
		{"unmarked merge", []Range{u(20, 5), u(10, 5), u(15, 2), u(30, 0)}, []Range{u(10, 7), u(20, 5)}},
		{"marked merge", []Range{m(10, 5), m(15, 5), m(18, 10)}, []Range{m(10, 18)}},
		{"marked then adjacent unmarked", []Range{m(10, 5), u(15, 5)}, []Range{m(10, 5), u(15, 5)}},
		{"unmarked then adjacent marked", []Range{u(10, 5), m(15, 5)}, []Range{u(10, 5), m(15, 5)}},
		{"overlap, marked first", []Range{m(10, 10), u(15, 10)}, []Range{m(10, 10), u(20, 5)}},
		{"overlap, unmarked first", []Range{u(10, 10), m(15, 10)}, []Range{u(10, 5), m(15, 10)}},
		{"marked inside unmarked", []Range{u(10, 20), m(15, 5)}, []Range{u(10, 5), m(15, 5), u(20, 10)}},
		{"unmarked inside marked", []Range{m(10, 20), u(15, 5)}, []Range{m(10, 20)}},
		{"same run both ways", []Range{u(10, 5), m(10, 5)}, []Range{m(10, 5)}},
		{"marked runs cover an unmarked one", []Range{m(10, 5), u(12, 8), m(15, 5)}, []Range{m(10, 10)}},
		{"gap in the marks", []Range{m(10, 5), u(12, 10), m(17, 5)}, []Range{m(10, 5), u(15, 2), m(17, 5)}},
		{"clamped at the end", []Range{m(95, 10), u(90, 20), m(200, 5)}, []Range{u(90, 5), m(95, 5)}},
	} {
		in := slices.Clone(tc.in)
		got := NormalizeRanges(tc.in, total)
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: NormalizeRanges(%v) = %v, want %v", tc.name, tc.in, got, tc.want)
		}
		if !slices.Equal(tc.in, in) {
			t.Errorf("%s: the input changed to %v", tc.name, tc.in)
		}
	}
}

// TestIntersect: the blocks both sets cover, carrying the second set's
// marks.
func TestIntersect(t *testing.T) {
	u := func(start, count uint64) Range { return Range{Start: start, Count: count} }
	m := func(start, count uint64) Range { return Range{Start: start, Count: count, Dirty: true} }
	for _, tc := range []struct {
		name string
		a, b []Range
		want []Range
	}{
		{"empty", []Range{u(0, 10)}, nil, nil},
		{"disjoint", []Range{u(0, 10)}, []Range{m(10, 5)}, nil},
		{"inside", []Range{u(0, 100)}, []Range{m(10, 5), m(40, 5)}, []Range{m(10, 5), m(40, 5)}},
		{"clipped both ends", []Range{u(10, 10), u(30, 10)}, []Range{m(5, 10), m(18, 15)}, []Range{m(10, 5), m(18, 2), m(30, 3)}},
		{"one b run over several a runs", []Range{u(0, 5), u(10, 5), u(20, 5)}, []Range{m(3, 19)}, []Range{m(3, 2), m(10, 5), m(20, 2)}},
		{"b unmarked", []Range{m(0, 10)}, []Range{u(5, 10)}, []Range{u(5, 5)}},
	} {
		if got := Intersect(tc.a, tc.b); !slices.Equal(got, tc.want) {
			t.Errorf("%s: Intersect(%v, %v) = %v, want %v", tc.name, tc.a, tc.b, got, tc.want)
		}
	}
}
