package texture

import (
	"math"

	"gpuchar/internal/cache"
	"gpuchar/internal/gmath"
	"gpuchar/internal/mem"
	"gpuchar/internal/metrics"
)

// FilterMode selects the texture filtering algorithm.
type FilterMode uint8

// Filtering modes. Anisotropic filtering takes a variable number of
// bilinear probes along the major axis of the pixel footprint — the
// dynamic component the paper's Table XIII characterizes.
const (
	FilterNearest FilterMode = iota
	FilterBilinear
	FilterTrilinear
	FilterAniso
)

// String names the filter mode like the paper's Table I ("Trilinear",
// "Anisotropic").
func (f FilterMode) String() string {
	switch f {
	case FilterNearest:
		return "Nearest"
	case FilterBilinear:
		return "Bilinear"
	case FilterTrilinear:
		return "Trilinear"
	default:
		return "Anisotropic"
	}
}

// SamplerState is the per-unit filtering configuration.
type SamplerState struct {
	Filter FilterMode
	// MaxAniso caps the anisotropy ratio (16 in the paper's "16X" runs).
	MaxAniso int
	// LODBias is added to the computed level of detail.
	LODBias float32
}

// SampleStats counts filtering work in the paper's units.
type SampleStats struct {
	// Requests counts texture requests (one per fragment per texture
	// instruction).
	Requests int64
	// BilinearSamples counts bilinear samples taken; modern GPUs
	// execute one per cycle per pipe, so BilinearSamples/Requests is
	// the throughput cost of Table XIII.
	BilinearSamples int64
	// TexelFetches counts individual texel reads before cache filtering.
	TexelFetches int64
}

// Register binds every counter of s into the registry under prefix —
// the single definition of the texture sampling counter names.
func (s *SampleStats) Register(r *metrics.Registry, prefix string) {
	r.Bind(prefix+"/requests", &s.Requests)
	r.Bind(prefix+"/bilinear_samples", &s.BilinearSamples)
	r.Bind(prefix+"/texel_fetches", &s.TexelFetches)
}

// AvgBilinearPerRequest returns the Table XIII headline metric.
func (s SampleStats) AvgBilinearPerRequest() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.BilinearSamples) / float64(s.Requests)
}

// L0Config and L1Config are the paper's Table XIV texture cache
// geometries: a small fully-associative L0 holding decompressed texels
// and a set-associative L1 holding compressed data. They are the
// defaults for units created without explicit geometries.
var (
	L0Config = cache.Config{Ways: 64, Sets: 1, LineBytes: 64}
	L1Config = cache.Config{Ways: 16, Sets: 16, LineBytes: 64}
)

// Unit is the texture sampling unit: sixteen texture bindings, the
// two-level cache hierarchy, and the memory controller connection. It
// implements the shader.Sampler interface.
type Unit struct {
	bindings [16]binding
	l0Cfg    cache.Config
	l1Cfg    cache.Config
	l0       *cache.Cache
	l1       *cache.Cache
	memctl   *mem.Controller
	stats    SampleStats
}

type binding struct {
	tex   *Texture
	state SamplerState
}

// NewUnit creates a texture unit with the Table XIV cache geometries
// connected to the given memory controller (which may be nil for pure
// filtering tests).
func NewUnit(m *mem.Controller) *Unit {
	return NewUnitCaches(m, L0Config, L1Config)
}

// NewUnitCaches is NewUnit with explicit L0/L1 geometries, the hook the
// sweepable hardware variants configure. The geometries must be valid
// per cache.New; hwconfig.Variant.Validate vets user-supplied configs
// before they reach this constructor.
func NewUnitCaches(m *mem.Controller, l0, l1 cache.Config) *Unit {
	return &Unit{
		l0Cfg:  l0,
		l1Cfg:  l1,
		l0:     cache.MustNew(l0),
		l1:     cache.MustNew(l1),
		memctl: m,
	}
}

// Bind attaches a texture with sampling state to a unit slot.
func (u *Unit) Bind(slot int, t *Texture, st SamplerState) {
	u.bindings[slot&15] = binding{tex: t, state: st}
}

// Stats returns the accumulated sampling statistics.
func (u *Unit) Stats() SampleStats { return u.stats }

// L0Stats and L1Stats expose the cache statistics for Table XIV.
func (u *Unit) L0Stats() cache.Stats { return u.l0.Stats() }

// L1Stats returns the compressed-level cache statistics.
func (u *Unit) L1Stats() cache.Stats { return u.l1.Stats() }

// ResetStats clears sampling and cache statistics.
func (u *Unit) ResetStats() {
	u.stats = SampleStats{}
	u.l0.ResetStats()
	u.l1.ResetStats()
}

// RegisterMetrics binds the sampling and L0/L1 cache counters into r
// under the three prefixes.
func (u *Unit) RegisterMetrics(r *metrics.Registry, texPrefix, l0Prefix, l1Prefix string) {
	u.stats.Register(r, texPrefix)
	u.l0.RegisterMetrics(r, l0Prefix)
	u.l1.RegisterMetrics(r, l1Prefix)
}

// SampleQuad filters the bound texture for a 2x2 quad. The level of
// detail and anisotropy are derived from the coordinate differences
// across the quad, exactly as hardware does. Lane order is (x,y),
// (x+1,y), (x,y+1), (x+1,y+1).
func (u *Unit) SampleQuad(unit int, coords *[4]gmath.Vec4, bias float32,
	projective bool) [4]gmath.Vec4 {

	b := &u.bindings[unit&15]
	if b.tex == nil {
		return [4]gmath.Vec4{}
	}
	fp := b.footprint(coords, bias, projective)
	var out [4]gmath.Vec4
	for lane := 0; lane < 4; lane++ {
		u.stats.Requests++
		var acc gmath.Vec4
		for p := 0; p < fp.probes; p++ {
			ps, pt := fp.probe(lane, p)
			var c gmath.Vec4
			switch {
			case b.state.Filter == FilterNearest:
				c = u.nearest(b.tex, ps, pt, int(fp.lod+0.5))
				u.stats.BilinearSamples++ // nearest occupies one sample slot
			case fp.trilinear:
				l0i := int(fp.lod)
				frac := fp.lod - float32(l0i)
				cA := u.bilinear(b.tex, ps, pt, l0i)
				cB := u.bilinear(b.tex, ps, pt, minInt(l0i+1, fp.maxLevel))
				c = cA.Lerp(cB, frac)
				u.stats.BilinearSamples += 2
			default: // bilinear
				c = u.bilinear(b.tex, ps, pt, int(fp.lod+0.5))
				u.stats.BilinearSamples++
			}
			acc = acc.Add(c)
		}
		out[lane] = acc.Scale(1 / float32(fp.probes))
	}
	return out
}

// footprint is a quad's filtering plan: the lanes' texture coordinates,
// the level of detail and the anisotropic probes along the major axis.
type footprint struct {
	st        [4]gmath.Vec2
	lod       float32
	maxLevel  int
	trilinear bool
	probes    int
	// stepS/stepT is the probe spacing in normalized coordinates.
	stepS, stepT float32
}

// probe returns the coordinates of probe p of lane.
func (fp *footprint) probe(lane, p int) (s, t float32) {
	off := float32(p) - float32(fp.probes-1)/2
	return fp.st[lane].X + fp.stepS*off, fp.st[lane].Y + fp.stepT*off
}

// footprint derives the filtering plan of a quad from the coordinate
// differences across it.
func (b *binding) footprint(coords *[4]gmath.Vec4, bias float32, projective bool) footprint {
	var fp footprint
	for lane := 0; lane < 4; lane++ {
		s, t, q := coords[lane].X, coords[lane].Y, coords[lane].W
		if projective && q != 0 {
			s, t = s/q, t/q
		}
		fp.st[lane] = gmath.V2(s, t)
	}
	st := &fp.st

	w0, h0 := b.tex.LevelSize(0)
	fw, fh := float32(w0), float32(h0)
	// Texel-space derivatives across the quad.
	dx := gmath.V2((st[1].X-st[0].X)*fw, (st[1].Y-st[0].Y)*fh)
	dy := gmath.V2((st[2].X-st[0].X)*fw, (st[2].Y-st[0].Y)*fh)
	lenX := dx.Len()
	lenY := dy.Len()

	pMax, pMin := lenX, lenY
	major := dx
	if lenY > lenX {
		pMax, pMin = lenY, lenX
		major = dy
	}
	if pMax < 1e-8 {
		pMax = 1e-8
	}
	if pMin < 1e-8 {
		pMin = 1e-8
	}

	// Probe count and LOD per filter mode.
	probes := 1
	lod := float32(math.Log2(float64(pMax)))
	switch b.state.Filter {
	case FilterAniso:
		ratio := pMax / pMin
		maxA := float32(b.state.MaxAniso)
		if maxA < 1 {
			maxA = 1
		}
		if ratio > maxA {
			ratio = maxA
		}
		probes = int(math.Ceil(float64(ratio)))
		if probes < 1 {
			probes = 1
		}
		lod = float32(math.Log2(float64(pMax / float32(probes))))
	case FilterNearest, FilterBilinear:
		// single probe at rounded/fractional lod below
	case FilterTrilinear:
		// single probe, two mips
	}
	lod += b.state.LODBias + bias
	fp.maxLevel = b.tex.Levels() - 1
	fp.lod = gmath.Clamp(lod, 0, float32(fp.maxLevel))
	fp.trilinear = b.state.Filter == FilterTrilinear || b.state.Filter == FilterAniso
	fp.probes = probes
	// Probe positions step along the major footprint axis in normalized
	// coordinates.
	fp.stepS = major.X / (fw * float32(probes))
	fp.stepT = major.Y / (fh * float32(probes))
	return fp
}

// bilinear performs one bilinear sample: the 2x2 texel footprint
// around (s, tc) at level lv, filtered with fractional weights. It is a
// fused kernel: the level is clamped and the two columns and two rows
// wrapped once, and the four compressed-space and four decompressed-space
// addresses are sums of separable x and y terms of the tiled layout. The
// cache hierarchy sees the texels in the order c00, c10, c01, c11.
func (u *Unit) bilinear(t *Texture, s, tc float32, lv int) gmath.Vec4 {
	lv = clampInt(lv, 0, len(t.levels)-1)
	li := &t.levels[lv]
	x := s*float32(li.w) - 0.5
	y := tc*float32(li.h) - 0.5
	x0 := int(floorf(x))
	y0 := int(floorf(y))
	fx := x - float32(x0)
	fy := y - float32(y0)
	xa, xb := x0&li.wMask, (x0+1)&li.wMask
	ya, yb := y0&li.hMask, (y0+1)&li.hMask

	comp := t.BaseAddr + li.offset
	cxa, cxb := t.blockX(xa), t.blockX(xb)
	cya, cyb := comp+t.blockY(li, ya), comp+t.blockY(li, yb)
	// Decompressed-space addresses scale the texture's base so distinct
	// textures never alias (decompressed data is at most 8x larger than
	// DXT1; 16x margin).
	unc := t.BaseAddr*16 + li.uncBase
	uxa, uxb := uncX(xa), uncX(xb)
	uya, uyb := unc+li.uncY(ya), unc+li.uncY(yb)

	// A texel in the L0 line of the texel before it is an MRU hit:
	// counted, not looked up. When the bottom row falls in the top row's
	// two lines and L0 has two or more ways, both lines are resident
	// after the top row (the second fill cannot evict the MRU first), so
	// the bottom row is two more hits that leave the LRU order as the
	// top row left it. Both tests compare line addresses, never tile
	// coordinates: L0 lines need not be 64 B and mip bases need not be
	// line-aligned.
	a00, a10, a01, a11 := uya+uxa, uya+uxb, uyb+uxa, uyb+uxb
	sh := u.l0.LineShift()
	u.stats.TexelFetches += 4
	u.access(a00, cya+cxa)
	u.accessAfter(a00, a10, cya+cxb, sh)
	if u.l0Cfg.Ways > 1 && a01>>sh == a00>>sh && a11>>sh == a10>>sh {
		u.l0.RepeatHits(2)
	} else {
		u.accessAfter(a10, a01, cyb+cxa, sh)
		u.accessAfter(a01, a11, cyb+cxb, sh)
	}

	c00 := unorm(t.texelAt(lv, xa, ya))
	c10 := unorm(t.texelAt(lv, xb, ya))
	c01 := unorm(t.texelAt(lv, xa, yb))
	c11 := unorm(t.texelAt(lv, xb, yb))
	top := c00.Lerp(c10, fx)
	bot := c01.Lerp(c11, fx)
	return top.Lerp(bot, fy)
}

// nearest reads the one texel under (s, tc) at level lv.
func (u *Unit) nearest(t *Texture, s, tc float32, lv int) gmath.Vec4 {
	lv = clampInt(lv, 0, len(t.levels)-1)
	li := &t.levels[lv]
	x := int(floorf(s*float32(li.w))) & li.wMask
	y := int(floorf(tc*float32(li.h))) & li.hMask
	c, compAddr := t.Texel(x, y, lv)
	u.stats.TexelFetches++
	u.access(t.BaseAddr*16+li.uncompressedOffset(x, y), compAddr)
	return unorm(c)
}

// access drives the cache hierarchy for one texel fetch: the L0 cache is
// addressed in decompressed space; an L0 miss fetches through the L1
// cache in compressed space; an L1 miss reads GDDR.
func (u *Unit) access(uncAddr, compAddr uint64) {
	if !u.l0.Access(uncAddr, false) {
		if !u.l1.Access(compAddr, false) && u.memctl != nil {
			u.memctl.Read(mem.ClientTexture, int64(u.l1Cfg.LineBytes))
		}
	}
}

// accessAfter is access for a texel fetched right after the texel at L0
// address prev.
func (u *Unit) accessAfter(prev, uncAddr, compAddr uint64, l0Shift uint) {
	if prev>>l0Shift == uncAddr>>l0Shift {
		u.l0.RepeatHits(1)
		return
	}
	u.access(uncAddr, compAddr)
}

// unorm8[i] is exactly float32(i)/255, the 8-bit channel conversion.
var unorm8 = func() (tab [256]float32) {
	for i := range tab {
		tab[i] = float32(i) / 255
	}
	return tab
}()

// unorm converts an 8-bit texel to normalized floats.
func unorm(c RGBA) gmath.Vec4 {
	return gmath.Vec4{X: unorm8[c.R], Y: unorm8[c.G], Z: unorm8[c.B], W: unorm8[c.A]}
}

func floorf(x float32) float32 { return float32(math.Floor(float64(x))) }
