package geom

import (
	"gpuchar/internal/metrics"
	"math"
	"testing"

	"gpuchar/internal/gmath"
	"gpuchar/internal/mem"
	"gpuchar/internal/shader"
)

// newTestPipeline builds a pipeline with a pass-through-ish vertex shader
// whose constants c0..c3 hold an identity MVP, so clip pos == input pos.
func newTestPipeline() (*Pipeline, *shader.Program, *mem.Controller) {
	m := shader.NewMachine()
	ident := gmath.Identity()
	for r := 0; r < 4; r++ {
		m.Consts[r] = ident.Row(r)
	}
	memctl := mem.NewController()
	p := NewPipeline(m, memctl)
	return p, shader.BasicTransformVS(), memctl
}

// vbFromPositions builds a vertex buffer with positions and a dummy
// texcoord/color.
func vbFromPositions(pos []gmath.Vec4) *VertexBuffer {
	tex := make([]gmath.Vec4, len(pos))
	col := make([]gmath.Vec4, len(pos))
	for i := range pos {
		tex[i] = gmath.V4(0.5, 0.5, 0, 1)
		col[i] = gmath.V4(1, 1, 1, 1)
	}
	return &VertexBuffer{
		Attribs:     [][]gmath.Vec4{pos, tex, col},
		StrideBytes: 48,
	}
}

var defaultCfg = Config{ViewportW: 100, ViewportH: 100, Cull: CullBack}

func TestPrimitiveTriangleCount(t *testing.T) {
	cases := []struct {
		p    PrimitiveType
		n    int
		want int
	}{
		{TriangleList, 9, 3},
		{TriangleList, 10, 3},
		{TriangleStrip, 9, 7},
		{TriangleStrip, 2, 0},
		{TriangleFan, 9, 7},
		{TriangleFan, 3, 1},
	}
	for _, c := range cases {
		if got := c.p.TriangleCount(c.n); got != c.want {
			t.Errorf("%v.TriangleCount(%d) = %d, want %d", c.p, c.n, got, c.want)
		}
	}
}

func TestPrimitiveString(t *testing.T) {
	if TriangleList.String() != "TL" || TriangleStrip.String() != "TS" ||
		TriangleFan.String() != "TF" {
		t.Error("primitive abbreviations wrong")
	}
}

// A CCW front-facing triangle filling the middle of clip space.
func frontTriangle() []gmath.Vec4 {
	return []gmath.Vec4{
		{X: -0.5, Y: -0.5, Z: 0, W: 1},
		{X: 0.5, Y: -0.5, Z: 0, W: 1},
		{X: 0, Y: 0.5, Z: 0, W: 1},
	}
}

func TestDrawSimpleTriangle(t *testing.T) {
	p, vs, _ := newTestPipeline()
	vb := vbFromPositions(frontTriangle())
	ib := &IndexBuffer{Indices: []uint32{0, 1, 2}, BytesPerIndex: 2}
	tris, st := p.Draw(vb, ib, TriangleList, vs, defaultCfg)
	if len(tris) != 1 {
		t.Fatalf("got %d triangles", len(tris))
	}
	if st.Indices != 3 || st.VerticesShaded != 3 || st.TrianglesAssembled != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.TrianglesTraversed != 1 || st.TrianglesClipped != 0 || st.TrianglesCulled != 0 {
		t.Errorf("classification = %+v", st)
	}
	// Viewport mapping: (-0.5,-0.5) -> (25,25).
	v0 := tris[0].V[0]
	if v0.X != 25 || v0.Y != 25 {
		t.Errorf("screen v0 = (%v,%v), want (25,25)", v0.X, v0.Y)
	}
	if !tris[0].CountsAsTraversed {
		t.Error("single triangle should count as traversed")
	}
}

func TestDrawBackfaceCulled(t *testing.T) {
	p, vs, _ := newTestPipeline()
	pos := frontTriangle()
	// Swap two vertices to flip winding.
	pos[0], pos[1] = pos[1], pos[0]
	vb := vbFromPositions(pos)
	ib := &IndexBuffer{Indices: []uint32{0, 1, 2}, BytesPerIndex: 2}
	tris, st := p.Draw(vb, ib, TriangleList, vs, defaultCfg)
	if len(tris) != 0 || st.TrianglesCulled != 1 {
		t.Errorf("tris=%d stats=%+v", len(tris), st)
	}
	// CullFront keeps it.
	cfg := defaultCfg
	cfg.Cull = CullFront
	tris, st = p.Draw(vb, ib, TriangleList, vs, cfg)
	if len(tris) != 1 || st.TrianglesTraversed != 1 {
		t.Errorf("CullFront: tris=%d stats=%+v", len(tris), st)
	}
	// CullNone keeps everything non-degenerate.
	cfg.Cull = CullNone
	tris, _ = p.Draw(vb, ib, TriangleList, vs, cfg)
	if len(tris) != 1 {
		t.Errorf("CullNone: tris=%d", len(tris))
	}
}

func TestDrawTriviallyClipped(t *testing.T) {
	p, vs, _ := newTestPipeline()
	pos := []gmath.Vec4{
		{X: 5, Y: 0, Z: 0, W: 1},
		{X: 6, Y: 0, Z: 0, W: 1},
		{X: 5, Y: 1, Z: 0, W: 1},
	}
	vb := vbFromPositions(pos)
	ib := &IndexBuffer{Indices: []uint32{0, 1, 2}, BytesPerIndex: 2}
	tris, st := p.Draw(vb, ib, TriangleList, vs, defaultCfg)
	if len(tris) != 0 || st.TrianglesClipped != 1 {
		t.Errorf("tris=%d stats=%+v", len(tris), st)
	}
}

func TestDrawStraddlingTriangleIsClippedToPolygon(t *testing.T) {
	p, vs, _ := newTestPipeline()
	// One vertex far outside the right plane; clipping against x<=w
	// produces a quad -> two screen triangles, one marked traversed.
	pos := []gmath.Vec4{
		{X: -0.5, Y: -0.5, Z: 0, W: 1},
		{X: 3.0, Y: -0.5, Z: 0, W: 1},
		{X: -0.5, Y: 0.5, Z: 0, W: 1},
	}
	vb := vbFromPositions(pos)
	ib := &IndexBuffer{Indices: []uint32{0, 1, 2}, BytesPerIndex: 2}
	tris, st := p.Draw(vb, ib, TriangleList, vs, defaultCfg)
	if st.TrianglesTraversed != 1 {
		t.Errorf("traversed = %d, want 1", st.TrianglesTraversed)
	}
	if len(tris) != 2 {
		t.Fatalf("clipped polygon triangles = %d, want 2", len(tris))
	}
	counts := 0
	for _, tr := range tris {
		if tr.CountsAsTraversed {
			counts++
		}
		for _, v := range tr.V {
			if v.X < -0.01 || v.X > 100.01 {
				t.Errorf("clipped vertex x = %v outside viewport", v.X)
			}
		}
	}
	if counts != 1 {
		t.Errorf("CountsAsTraversed sum = %d, want 1", counts)
	}
}

func TestVertexCacheReuseInList(t *testing.T) {
	p, vs, _ := newTestPipeline()
	// Strip-ordered triangle list over a vertex row: indices
	// (0,1,2),(1,2,3)... -> ~66% hit rate, one shade per new vertex.
	n := 64
	pos := make([]gmath.Vec4, n)
	for i := range pos {
		x := -0.9 + 1.8*float32(i)/float32(n)
		y := float32(0)
		if i%2 == 1 {
			y = 0.2
		}
		pos[i] = gmath.V4(x, y, 0, 1)
	}
	var idx []uint32
	for i := 0; i+2 < n; i++ {
		if i%2 == 0 {
			idx = append(idx, uint32(i), uint32(i+1), uint32(i+2))
		} else {
			idx = append(idx, uint32(i+1), uint32(i), uint32(i+2))
		}
	}
	vb := vbFromPositions(pos)
	ib := &IndexBuffer{Indices: idx, BytesPerIndex: 2}
	_, st := p.Draw(vb, ib, TriangleList, vs, defaultCfg)
	if st.VerticesShaded != int64(n) {
		t.Errorf("shaded = %d, want %d (each vertex once)", st.VerticesShaded, n)
	}
	hitRate := 1 - float64(st.VerticesShaded)/float64(st.Indices)
	if hitRate < 0.6 {
		t.Errorf("vertex cache hit rate = %v, want >= 0.6", hitRate)
	}
}

func TestStripAndFanAssembly(t *testing.T) {
	p, vs, _ := newTestPipeline()
	// A 4-vertex strip = 2 triangles; winding of the odd triangle is
	// flipped so both survive backface culling.
	pos := []gmath.Vec4{
		{X: -0.5, Y: -0.5, Z: 0, W: 1},
		{X: 0.5, Y: -0.5, Z: 0, W: 1},
		{X: -0.5, Y: 0.5, Z: 0, W: 1},
		{X: 0.5, Y: 0.5, Z: 0, W: 1},
	}
	vb := vbFromPositions(pos)
	ib := &IndexBuffer{Indices: []uint32{0, 1, 2, 3}, BytesPerIndex: 2}
	tris, st := p.Draw(vb, ib, TriangleStrip, vs, defaultCfg)
	if st.TrianglesAssembled != 2 {
		t.Errorf("strip assembled = %d", st.TrianglesAssembled)
	}
	if len(tris) != 2 {
		t.Errorf("strip traversed = %d triangles", len(tris))
	}

	// A fan around vertex 0.
	fanPos := []gmath.Vec4{
		{X: 0, Y: 0, Z: 0, W: 1},
		{X: 0.5, Y: 0, Z: 0, W: 1},
		{X: 0.35, Y: 0.35, Z: 0, W: 1},
		{X: 0, Y: 0.5, Z: 0, W: 1},
	}
	vb2 := vbFromPositions(fanPos)
	ib2 := &IndexBuffer{Indices: []uint32{0, 1, 2, 3}, BytesPerIndex: 2}
	_, st2 := p.Draw(vb2, ib2, TriangleFan, vs, defaultCfg)
	if st2.TrianglesAssembled != 2 {
		t.Errorf("fan assembled = %d", st2.TrianglesAssembled)
	}
	// In a fan the hub vertex is shaded once.
	if st2.VerticesShaded != 4 {
		t.Errorf("fan shaded = %d, want 4", st2.VerticesShaded)
	}
}

func TestMemoryTrafficAccounting(t *testing.T) {
	p, vs, memctl := newTestPipeline()
	vb := vbFromPositions(frontTriangle())
	ib := &IndexBuffer{Indices: []uint32{0, 1, 2}, BytesPerIndex: 4}
	p.Draw(vb, ib, TriangleList, vs, defaultCfg)
	traffic := memctl.ClientTraffic(mem.ClientVertex)
	// 3 indices * 4B + 3 shaded vertices * 48B stride.
	want := int64(3*4 + 3*48)
	if traffic.ReadBytes != want {
		t.Errorf("vertex traffic = %d, want %d", traffic.ReadBytes, want)
	}
}

func TestPerspectiveVertexScreenMapping(t *testing.T) {
	p, _, _ := newTestPipeline()
	// Use a real perspective matrix.
	proj := gmath.Perspective(float32(math.Pi/2), 1, 1, 100)
	for r := 0; r < 4; r++ {
		p.Machine.Consts[r] = proj.Row(r)
	}
	vs := shader.BasicTransformVS()
	pos := []gmath.Vec4{
		{X: -1, Y: -1, Z: -2, W: 1},
		{X: 1, Y: -1, Z: -2, W: 1},
		{X: 0, Y: 1, Z: -2, W: 1},
	}
	vb := vbFromPositions(pos)
	ib := &IndexBuffer{Indices: []uint32{0, 1, 2}, BytesPerIndex: 2}
	tris, st := p.Draw(vb, ib, TriangleList, vs, defaultCfg)
	if st.TrianglesTraversed != 1 || len(tris) != 1 {
		t.Fatalf("stats=%+v tris=%d", st, len(tris))
	}
	v := tris[0].V[0]
	// Eye-space (-1,-1,-2) with 90-degree fov: ndc (-0.5,-0.5), screen (25,25).
	if math.Abs(float64(v.X-25)) > 0.01 || math.Abs(float64(v.Y-25)) > 0.01 {
		t.Errorf("screen v0 = (%v,%v)", v.X, v.Y)
	}
	if v.InvW != 0.5 {
		t.Errorf("InvW = %v, want 0.5", v.InvW)
	}
	// Depth within [0,1].
	if v.Z < 0 || v.Z > 1 {
		t.Errorf("Z = %v", v.Z)
	}
}

func TestDegenerateTriangleCulled(t *testing.T) {
	p, vs, _ := newTestPipeline()
	pos := []gmath.Vec4{
		{X: 0, Y: 0, Z: 0, W: 1},
		{X: 0.5, Y: 0.5, Z: 0, W: 1},
		{X: 0.25, Y: 0.25, Z: 0, W: 1}, // collinear
	}
	vb := vbFromPositions(pos)
	ib := &IndexBuffer{Indices: []uint32{0, 1, 2}, BytesPerIndex: 2}
	cfg := defaultCfg
	cfg.Cull = CullNone
	tris, st := p.Draw(vb, ib, TriangleList, vs, cfg)
	if len(tris) != 0 || st.TrianglesCulled != 1 {
		t.Errorf("degenerate: tris=%d stats=%+v", len(tris), st)
	}
}

func TestEmptyDraw(t *testing.T) {
	p, vs, _ := newTestPipeline()
	vb := &VertexBuffer{}
	ib := &IndexBuffer{Indices: nil, BytesPerIndex: 2}
	tris, st := p.Draw(vb, ib, TriangleList, vs, defaultCfg)
	if tris != nil || st.Indices != 0 {
		t.Error("empty draw should be a no-op")
	}
}

func TestOutOfRangeIndicesDropped(t *testing.T) {
	p, vs, _ := newTestPipeline()
	vb := vbFromPositions(frontTriangle())
	ib := &IndexBuffer{Indices: []uint32{0, 1, 99}, BytesPerIndex: 2}
	_, st := p.Draw(vb, ib, TriangleList, vs, defaultCfg)
	if st.Indices != 2 {
		t.Errorf("indices processed = %d, want 2", st.Indices)
	}
	if st.TrianglesAssembled != 0 {
		t.Errorf("assembled = %d, want 0", st.TrianglesAssembled)
	}
}

func TestStatsRegister(t *testing.T) {
	a := Stats{Indices: 1, VerticesShaded: 2, TrianglesAssembled: 3,
		TrianglesClipped: 4, TrianglesCulled: 5, TrianglesTraversed: 6}
	r := metrics.NewRegistry()
	a.Register(r, "geom")
	s := r.Snapshot()
	s.Merge(s)
	if r.Load(s) != 0 {
		t.Fatal("snapshot did not round-trip through the registry")
	}
	if a.Indices != 2 || a.TrianglesTraversed != 12 {
		t.Errorf("merged stats = %+v", a)
	}
}

func TestClassificationSumsToAssembled(t *testing.T) {
	p, vs, _ := newTestPipeline()
	// Mix of in, out and backfacing triangles.
	pos := []gmath.Vec4{
		// traversed
		{X: -0.5, Y: -0.5, Z: 0, W: 1}, {X: 0.5, Y: -0.5, Z: 0, W: 1}, {X: 0, Y: 0.5, Z: 0, W: 1},
		// clipped (far right)
		{X: 5, Y: 0, Z: 0, W: 1}, {X: 6, Y: 0, Z: 0, W: 1}, {X: 5, Y: 1, Z: 0, W: 1},
		// culled (flipped winding)
		{X: 0.5, Y: -0.5, Z: 0, W: 1}, {X: -0.5, Y: -0.5, Z: 0, W: 1}, {X: 0, Y: 0.5, Z: 0, W: 1},
	}
	vb := vbFromPositions(pos)
	ib := &IndexBuffer{
		Indices:       []uint32{0, 1, 2, 3, 4, 5, 6, 7, 8},
		BytesPerIndex: 2,
	}
	_, st := p.Draw(vb, ib, TriangleList, vs, defaultCfg)
	sum := st.TrianglesClipped + st.TrianglesCulled + st.TrianglesTraversed
	if sum != st.TrianglesAssembled {
		t.Errorf("clip+cull+traverse = %d, assembled = %d", sum, st.TrianglesAssembled)
	}
	if st.TrianglesClipped != 1 || st.TrianglesCulled != 1 || st.TrianglesTraversed != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// reuseDraws is a draw sequence that exercises every scratch buffer:
// plain, clipped (the clipper's polygons swap and grow), trivially
// rejected, strip and fan assembly, and a buffer with fewer attribute
// streams than the draw before it.
func reuseDraws() []struct {
	vb   *VertexBuffer
	ib   *IndexBuffer
	prim PrimitiveType
} {
	straddle := vbFromPositions([]gmath.Vec4{
		{X: -3, Y: -0.5, Z: 0, W: 1},
		{X: 3, Y: -0.5, Z: 0, W: 1},
		{X: 0, Y: 3, Z: 0, W: 1},
		{X: 5, Y: 5, Z: 0, W: 1},
		{X: 6, Y: 5, Z: 0, W: 1},
		{X: 5, Y: 6, Z: 0, W: 1},
	})
	posOnly := &VertexBuffer{
		Attribs:     [][]gmath.Vec4{frontTriangle()},
		StrideBytes: 16,
	}
	list := &IndexBuffer{Indices: []uint32{0, 1, 2, 3, 4, 5}, BytesPerIndex: 2}
	tri := &IndexBuffer{Indices: []uint32{0, 1, 2}, BytesPerIndex: 2}
	return []struct {
		vb   *VertexBuffer
		ib   *IndexBuffer
		prim PrimitiveType
	}{
		{vbFromPositions(frontTriangle()), tri, TriangleList},
		{straddle, list, TriangleList},
		{straddle, list, TriangleStrip},
		{straddle, list, TriangleFan},
		{posOnly, tri, TriangleList},
	}
}

// TestDrawScratchReuseMatchesFreshPipeline runs a draw sequence through
// one pipeline, whose scratch buffers carry over between draws, and
// each draw through a fresh pipeline: triangles and statistics must
// agree. A stale vertex-shader input slot, clip polygon or output
// triangle left from the previous draw would show here.
func TestDrawScratchReuseMatchesFreshPipeline(t *testing.T) {
	warm, vs, _ := newTestPipeline()
	for i, d := range reuseDraws() {
		got, gotSt := warm.Draw(d.vb, d.ib, d.prim, vs, defaultCfg)
		got = append([]Triangle(nil), got...)
		fresh, _, _ := newTestPipeline()
		want, wantSt := fresh.Draw(d.vb, d.ib, d.prim, vs, defaultCfg)
		if gotSt != wantSt {
			t.Fatalf("draw %d: stats %+v, fresh pipeline %+v", i, gotSt, wantSt)
		}
		if len(got) != len(want) {
			t.Fatalf("draw %d: %d triangles, fresh pipeline %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("draw %d triangle %d: %+v, fresh pipeline %+v", i, j, got[j], want[j])
			}
		}
	}
}

// TestWarmDrawAllocatesNothing pins the allocation-free draw path: once
// the scratch buffers have grown, a Draw that shades, clips (one
// triangle straddles the frustum and splits) and emits allocates
// nothing.
func TestWarmDrawAllocatesNothing(t *testing.T) {
	p, vs, _ := newTestPipeline()
	draws := reuseDraws()
	d := draws[1]
	tris, st := p.Draw(d.vb, d.ib, d.prim, vs, defaultCfg)
	if st.TrianglesClipped != 1 || len(tris) <= int(st.TrianglesTraversed) {
		t.Fatalf("draw does not exercise the clipper: stats %+v, %d triangles", st, len(tris))
	}
	if n := testing.AllocsPerRun(100, func() {
		p.Draw(d.vb, d.ib, d.prim, vs, defaultCfg)
	}); n != 0 {
		t.Errorf("warm Draw allocates %v times, want 0", n)
	}
}
