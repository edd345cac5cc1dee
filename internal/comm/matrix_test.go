package comm

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewMatrixAndAccessors(t *testing.T) {
	m := NewMatrix(3)
	if m.Order() != 3 {
		t.Fatalf("order = %d", m.Order())
	}
	m.Set(0, 1, 5)
	m.Add(0, 1, 2)
	if got := m.At(0, 1); got != 7 {
		t.Errorf("At(0,1) = %g, want 7", got)
	}
	m.AddSym(1, 2, 3)
	if m.At(1, 2) != 3 || m.At(2, 1) != 3 {
		t.Error("AddSym did not write both triangles")
	}
	m.AddSym(2, 2, 4)
	if m.At(2, 2) != 4 {
		t.Error("AddSym on diagonal should add once")
	}
	if NewMatrix(-5).Order() != 0 {
		t.Error("negative order should clamp to 0")
	}
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{0, 1}, {2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 2 {
		t.Error("FromRows content wrong")
	}
	if _, err := FromRows([][]float64{{0, 1}, {2}}); err == nil {
		t.Error("FromRows accepted ragged rows")
	}
}

func TestSymmetrized(t *testing.T) {
	m, _ := FromRows([][]float64{{9, 1, 0}, {2, 0, 5}, {0, 0, 0}})
	s := m.Symmetrized()
	if !s.IsSymmetric() {
		t.Fatal("Symmetrized not symmetric")
	}
	if s.At(0, 1) != 3 || s.At(1, 0) != 3 {
		t.Errorf("symmetrized (0,1) = %g, want 3", s.At(0, 1))
	}
	if s.At(0, 0) != 0 {
		t.Error("diagonal should be cleared")
	}
	if s.At(1, 2) != 5 || s.At(2, 1) != 5 {
		t.Error("one-sided entries should be mirrored")
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := NewMatrix(2)
	m.Set(0, 1, 1)
	c := m.Clone()
	c.Set(0, 1, 99)
	if m.At(0, 1) != 1 {
		t.Error("Clone is shallow")
	}
}

func TestTotalAndMaxEntry(t *testing.T) {
	m, _ := FromRows([][]float64{{0, 2}, {3, 0}})
	if m.Total() != 5 {
		t.Errorf("Total = %g", m.Total())
	}
	if m.MaxEntry() != 3 {
		t.Errorf("MaxEntry = %g", m.MaxEntry())
	}
	if NewMatrix(0).MaxEntry() != 0 {
		t.Error("empty MaxEntry should be 0")
	}
}

func TestPermuted(t *testing.T) {
	m, _ := FromRows([][]float64{{0, 10, 20}, {1, 0, 21}, {2, 12, 0}})
	p, err := m.Permuted([]int{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	// New entity 0 is old entity 2.
	if p.At(0, 1) != m.At(2, 0) {
		t.Errorf("Permuted(0,1) = %g, want %g", p.At(0, 1), m.At(2, 0))
	}
	if _, err := m.Permuted([]int{0, 0, 1}); err == nil {
		t.Error("accepted duplicate permutation")
	}
	if _, err := m.Permuted([]int{0, 1}); err == nil {
		t.Error("accepted short permutation")
	}
	if _, err := m.Permuted([]int{0, 1, 5}); err == nil {
		t.Error("accepted out-of-range permutation")
	}
}

func TestRingPattern(t *testing.T) {
	m := Ring(4, 8, false)
	if m.At(0, 1) != 8 || m.At(2, 3) != 8 {
		t.Error("pipeline links missing")
	}
	if m.At(3, 0) != 0 {
		t.Error("pipeline should not wrap")
	}
	w := Ring(4, 8, true)
	if w.At(3, 0) != 8 {
		t.Error("ring should wrap")
	}
	if w.Total() != 32 {
		t.Errorf("ring total = %g", w.Total())
	}
}

func TestStencil2DPattern(t *testing.T) {
	m := Stencil2D(3, 2, 100, 10)
	// Entity 0=(0,0): east neighbour 1, south neighbour 3.
	if m.At(0, 1) != 10 || m.At(1, 0) != 10 {
		t.Error("east/west volume wrong")
	}
	if m.At(0, 3) != 100 || m.At(3, 0) != 100 {
		t.Error("north/south volume wrong")
	}
	if m.At(0, 4) != 0 {
		t.Error("diagonal neighbours should not communicate")
	}
	if !m.IsSymmetric() {
		t.Error("stencil matrix should be symmetric")
	}
	// Edges: horizontal (bx-1)*by = 4, vertical bx*(by-1) = 3.
	want := 2 * (4*10.0 + 3*100.0)
	if m.Total() != want {
		t.Errorf("total = %g, want %g", m.Total(), want)
	}
}

func TestUniformAndClustered(t *testing.T) {
	u := Uniform(3, 2)
	if u.At(0, 0) != 0 || u.At(0, 2) != 2 {
		t.Error("uniform wrong")
	}
	c := Clustered(6, 3, 9, 1)
	if c.At(0, 1) != 9 || c.At(0, 2) != 1 {
		t.Error("clustered wrong")
	}
	if !c.IsSymmetric() {
		t.Error("clustered should be symmetric")
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(5, 10, 42)
	b := Random(5, 10, 42)
	c := Random(5, 10, 43)
	if a.String() != b.String() {
		t.Error("same seed should reproduce")
	}
	if a.String() == c.String() {
		t.Error("different seeds should differ")
	}
	if !a.IsSymmetric() {
		t.Error("random matrix should be symmetric")
	}
}

func TestHeaviestPairs(t *testing.T) {
	m := NewMatrix(4)
	m.Set(0, 1, 1)
	m.Set(2, 3, 10)
	m.Set(3, 2, 5)
	pairs := m.HeaviestPairs(0)
	if len(pairs) != 2 {
		t.Fatalf("pairs = %d, want 2", len(pairs))
	}
	if pairs[0].I != 2 || pairs[0].J != 3 || pairs[0].Volume != 15 {
		t.Errorf("heaviest = %+v", pairs[0])
	}
	if got := m.HeaviestPairs(1); len(got) != 1 {
		t.Errorf("limit ignored: %d", len(got))
	}
}

func TestGrayScaleRender(t *testing.T) {
	m := Clustered(4, 2, 1e6, 1)
	out := m.RenderGrayScale()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // header + 4 rows
		t.Fatalf("render lines = %d", len(lines))
	}
	// Heavy intra-cluster cells must render darker than light ones.
	heavy := lines[1][1]
	light := lines[1][2]
	if heavy == light {
		t.Errorf("gray scale did not separate %g from %g: %q", 1e6, 1.0, lines[1])
	}
	if lines[1][0] != ' ' {
		t.Error("zero diagonal should render blank")
	}
}

func TestRenderPGM(t *testing.T) {
	m := Clustered(4, 2, 1e6, 1)
	img := m.RenderPGM(2)
	if !bytes.HasPrefix(img, []byte("P5\n8 8\n255\n")) {
		t.Fatalf("bad header: %q", img[:12])
	}
	pixels := img[len("P5\n8 8\n255\n"):]
	if len(pixels) != 64 {
		t.Fatalf("pixel count = %d", len(pixels))
	}
	// Diagonal (zero) is white; heavy intra-cluster cells are darker
	// than light inter-cluster ones.
	if pixels[0] != 255 {
		t.Error("zero entry should be white")
	}
	heavy := pixels[2] // (0,1) scaled: row 0, col 2
	light := pixels[4] // (0,2)
	if heavy >= light {
		t.Errorf("heavy pixel %d not darker than light %d", heavy, light)
	}
	// Scale clamping.
	if got := NewMatrix(2).RenderPGM(0); !bytes.HasPrefix(got, []byte("P5\n2 2\n")) {
		t.Error("scale 0 should clamp to 1")
	}
}

func TestIORoundTrip(t *testing.T) {
	m := Random(7, 100, 1)
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Order() != m.Order() {
		t.Fatalf("order changed: %d", got.Order())
	}
	for i := 0; i < m.Order(); i++ {
		for j := 0; j < m.Order(); j++ {
			if got.At(i, j) != m.At(i, j) {
				t.Fatalf("(%d,%d) = %g, want %g", i, j, got.At(i, j), m.At(i, j))
			}
		}
	}
}

func TestReadAcceptsCommentsAndRejectsGarbage(t *testing.T) {
	in := "# a comment\n\n2\n0 1\n1 0\n"
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatalf("Read with comments: %v", err)
	}
	if m.At(0, 1) != 1 {
		t.Error("content wrong")
	}
	bad := []string{
		"",
		"x\n",
		"2\n0 1\n",
		"2\n0 1 2\n0 0\n",
		"2\n0 a\n0 0\n",
		"-1\n",
	}
	for _, s := range bad {
		if _, err := Read(strings.NewReader(s)); err == nil {
			t.Errorf("Read accepted %q", s)
		}
	}
}

// Property: symmetrization is idempotent and preserves the total volume.
func TestSymmetrizeProperties(t *testing.T) {
	f := func(seed int64) bool {
		m := Random(6, 50, seed)
		// Random is symmetric; perturb to make it asymmetric.
		m.Set(0, 1, m.At(0, 1)+13)
		offDiag := 0.0
		for i := 0; i < 6; i++ {
			for j := 0; j < 6; j++ {
				if i != j {
					offDiag += m.At(i, j)
				}
			}
		}
		s := m.Symmetrized()
		if math.Abs(s.Total()-2*offDiag) > 1e-9*(1+offDiag) {
			return false
		}
		ss := s.Symmetrized()
		for i := 0; i < 6; i++ {
			for j := 0; j < 6; j++ {
				if math.Abs(ss.At(i, j)-2*s.At(i, j)) > 1e-9 {
					return false
				}
			}
		}
		return s.IsSymmetric()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResetAndRowView(t *testing.T) {
	m := NewMatrix(3)
	m.Set(1, 1, 5)
	m.Reset(2)
	if m.Order() != 2 || m.Total() != 0 {
		t.Errorf("Reset left order=%d total=%g", m.Order(), m.Total())
	}
	m.Set(1, 0, 4)
	row := m.RowView(1)
	if len(row) != 2 || row[0] != 4 {
		t.Errorf("RowView = %v", row)
	}
	row[1] = 9
	if m.At(1, 1) != 9 {
		t.Error("RowView writes must alias the matrix")
	}
}

func TestHeaviestPairsSkipsZeroVolumes(t *testing.T) {
	m := NewMatrix(64) // sparse: two nonzero pairs out of 2016
	m.AddSym(3, 9, 5)
	m.AddSym(10, 11, 7)
	pairs := m.HeaviestPairs(0)
	if len(pairs) != 2 {
		t.Fatalf("got %d pairs, want only the 2 nonzero ones", len(pairs))
	}
	if pairs[0].Volume != 14 || pairs[1].Volume != 10 {
		t.Errorf("pairs = %v, want decreasing symmetrized volumes 14, 10", pairs)
	}
}
