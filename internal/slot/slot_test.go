package slot

import (
	"slices"
	"strings"
	"testing"
)

func TestRemap(t *testing.T) {
	for _, tc := range []struct {
		name     string
		n        int
		drop     []int
		of       []int // Of(i) for every old slot i
		apply    []*int
		applied  []*int
		renumber []int32 // an index list over the old slots
		renumed  []int32
	}{
		{
			name: "empty",
			of:   []int{},
		},
		{
			name:     "no drops is the identity",
			n:        4,
			of:       []int{0, 1, 2, 3},
			apply:    ptrs(10, 11, 12, 13),
			applied:  ptrs(10, 11, 12, 13),
			renumber: []int32{3, 0, 2},
			renumed:  []int32{3, 0, 2},
		},
		{
			name:     "one survivor",
			n:        4,
			drop:     []int{0, 1, 3},
			of:       []int{-1, -1, 0, -1},
			apply:    ptrs(10, 11, 12, 13),
			applied:  ptrs(12),
			renumber: []int32{3, 2, 0},
			renumed:  []int32{0},
		},
		{
			name:     "survivors keep their order",
			n:        7,
			drop:     []int{0, 3, 4},
			of:       []int{-1, 0, 1, -1, -1, 2, 3},
			apply:    ptrs(10, 11, 12, 13, 14, 15, 16),
			applied:  ptrs(11, 12, 15, 16),
			renumber: []int32{6, 4, 1, 0, 5, 2, 3},
			renumed:  []int32{3, 0, 2, 1},
		},
		{
			name:    "everything dropped",
			n:       3,
			drop:    []int{0, 1, 2},
			of:      []int{-1, -1, -1},
			apply:   ptrs(10, 11, 12),
			applied: ptrs(),
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := Plan(tc.n, func(i int) bool { return slices.Contains(tc.drop, i) })
			if r.N() != tc.n-len(tc.drop) || r.Dropped() != len(tc.drop) {
				t.Fatalf("N, Dropped = %d, %d; want %d, %d", r.N(), r.Dropped(), tc.n-len(tc.drop), len(tc.drop))
			}
			of := make([]int, tc.n)
			for i := range of {
				of[i] = r.Of(i)
			}
			if !slices.Equal(of, tc.of) {
				t.Fatalf("Of = %v, want %v", of, tc.of)
			}
			if tc.apply != nil {
				backing := tc.apply
				got := Apply(r, tc.apply)
				if !slices.EqualFunc(got, tc.applied, func(a, b *int) bool { return *a == *b }) {
					t.Fatalf("Apply = %v, want %v", vals(got), vals(tc.applied))
				}
				// The dropped tail is cleared in the backing array, so no
				// reference outlives its slot.
				for k, p := range backing[len(got):] {
					if p != nil {
						t.Fatalf("backing[%d] = %d after Apply, want nil", len(got)+k, *p)
					}
				}
			}
			if got := Renumber(r, tc.renumber); !slices.Equal(got, tc.renumed) {
				t.Fatalf("Renumber(%v) = %v, want %v", tc.renumber, got, tc.renumed)
			}
		})
	}
}

// TestApplyNil: an optional per-slot array that is absent stays absent.
func TestApplyNil(t *testing.T) {
	r := Plan(3, func(i int) bool { return i == 1 })
	if got := Apply(r, []float64(nil)); got != nil {
		t.Fatalf("Apply(nil) = %v, want nil", got)
	}
}

// TestCheck: a remap fits only a structure with exactly its slot count,
// and Apply refuses a mis-sized array rather than corrupt it.
func TestCheck(t *testing.T) {
	r := Plan(3, func(i int) bool { return i == 1 })
	if err := r.Check("x", 3); err != nil {
		t.Fatal(err)
	}
	err := r.Check("x", 4)
	if err == nil || !strings.HasPrefix(err.Error(), "x: ") {
		t.Fatalf("Check(4) = %v, want an x: error", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Apply on a mis-sized array did not panic")
		}
	}()
	Apply(r, []int{1, 2})
}

func ptrs(vs ...int) []*int {
	ps := make([]*int, len(vs))
	for i := range vs {
		ps[i] = &vs[i]
	}
	return ps
}

func vals(ps []*int) []int {
	vs := make([]int, len(ps))
	for i, p := range ps {
		vs[i] = *p
	}
	return vs
}
