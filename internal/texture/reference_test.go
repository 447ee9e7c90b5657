package texture

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gpuchar/internal/cache"
	"gpuchar/internal/gmath"
	"gpuchar/internal/mem"
)

// This file keeps the per-texel sampling path the fused footprint kernel
// replaced: every texel of a bilinear footprint is fetched on its own,
// with its own level clamp, wrap, address computation (the
// division-based refBlockOffset/refUncompressedOffset of
// address_test.go) and cache walk. It is the oracle the production
// kernel must match bit for bit: filtered colors, SampleStats, L0/L1
// cache statistics and texture memory traffic.

// refSampleQuad is SampleQuad over the reference kernels.
func refSampleQuad(u *Unit, unit int, coords *[4]gmath.Vec4, bias float32,
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
				c = refFetchNearest(u, b.tex, ps, pt, int(fp.lod+0.5))
				u.stats.BilinearSamples++
			case fp.trilinear:
				l0i := int(fp.lod)
				frac := fp.lod - float32(l0i)
				cA := refBilinear(u, b.tex, ps, pt, l0i)
				cB := refBilinear(u, b.tex, ps, pt, minInt(l0i+1, fp.maxLevel))
				c = cA.Lerp(cB, frac)
				u.stats.BilinearSamples += 2
			default:
				c = refBilinear(u, b.tex, ps, pt, int(fp.lod+0.5))
				u.stats.BilinearSamples++
			}
			acc = acc.Add(c)
		}
		out[lane] = acc.Scale(1 / float32(fp.probes))
	}
	return out
}

// refBilinear performs one bilinear sample as four independent texel
// fetches with fractional weighting.
func refBilinear(u *Unit, t *Texture, s, tc float32, lv int) gmath.Vec4 {
	lw, lh := t.LevelSize(lv)
	x := s*float32(lw) - 0.5
	y := tc*float32(lh) - 0.5
	x0 := int(floorf(x))
	y0 := int(floorf(y))
	fx := x - float32(x0)
	fy := y - float32(y0)

	c00 := refFetchTexel(u, t, x0, y0, lv)
	c10 := refFetchTexel(u, t, x0+1, y0, lv)
	c01 := refFetchTexel(u, t, x0, y0+1, lv)
	c11 := refFetchTexel(u, t, x0+1, y0+1, lv)

	top := c00.Lerp(c10, fx)
	bot := c01.Lerp(c11, fx)
	return top.Lerp(bot, fy)
}

func refFetchNearest(u *Unit, t *Texture, s, tc float32, lv int) gmath.Vec4 {
	lw, lh := t.LevelSize(lv)
	x := int(floorf(s * float32(lw)))
	y := int(floorf(tc * float32(lh)))
	return refFetchTexel(u, t, x, y, lv)
}

// refFetchTexel reads one texel, driving the cache hierarchy: the L0
// cache is addressed in decompressed space; an L0 miss fetches through
// the L1 cache in compressed space; an L1 miss reads GDDR.
func refFetchTexel(u *Unit, t *Texture, x, y, lv int) gmath.Vec4 {
	c, compAddr := refTexel(t, x, y, lv)
	u.stats.TexelFetches++
	uncAddr := t.BaseAddr*16 + refUncompressedOffset(t, x, y, lv)
	if !u.l0.Access(uncAddr, false) {
		if !u.l1.Access(compAddr, false) && u.memctl != nil {
			u.memctl.Read(mem.ClientTexture, int64(u.l1Cfg.LineBytes))
		}
	}
	return gmath.Vec4{
		X: float32(c.R) / 255,
		Y: float32(c.G) / 255,
		Z: float32(c.B) / 255,
		W: float32(c.A) / 255,
	}
}

// refTexel is Texture.Texel over the division-based block address.
func refTexel(t *Texture, x, y, lv int) (RGBA, uint64) {
	lv = clampInt(lv, 0, len(t.levels)-1)
	li := &t.levels[lv]
	x &= li.w - 1
	y &= li.h - 1
	addr := t.BaseAddr + li.offset + refBlockOffset(t, li, x, y)
	if t.data != nil {
		return t.decodeTexel(lv, x, y), addr
	}
	if t.proc != nil {
		return t.proc(x, y, lv), addr
	}
	return RGBA{}, addr
}

// refPair is a production unit and a reference unit driven in lockstep,
// each with its own caches and memory controller.
type refPair struct {
	got, want       *Unit
	gotMem, wantMem *mem.Controller
}

func newRefPair(l0 cache.Config) *refPair {
	p := &refPair{gotMem: mem.NewController(), wantMem: mem.NewController()}
	p.got = NewUnitCaches(p.gotMem, l0, L1Config)
	p.want = NewUnitCaches(p.wantMem, l0, L1Config)
	return p
}

func (p *refPair) bind(tex *Texture, st SamplerState) {
	p.got.Bind(0, tex, st)
	p.want.Bind(0, tex, st)
}

// check fails unless both units agree on every counter.
func (p *refPair) check(t *testing.T, what string) {
	t.Helper()
	if g, w := p.got.Stats(), p.want.Stats(); g != w {
		t.Fatalf("%s: SampleStats %+v, reference %+v", what, g, w)
	}
	if g, w := p.got.L0Stats(), p.want.L0Stats(); g != w {
		t.Fatalf("%s: L0 stats %+v, reference %+v", what, g, w)
	}
	if g, w := p.got.L1Stats(), p.want.L1Stats(); g != w {
		t.Fatalf("%s: L1 stats %+v, reference %+v", what, g, w)
	}
	if g, w := p.gotMem.Snapshot(), p.wantMem.Snapshot(); g != w {
		t.Fatalf("%s: memory traffic %+v, reference %+v", what, g, w)
	}
}

// sameBits reports whether two colors are identical bit for bit.
func sameBits(a, b gmath.Vec4) bool {
	return math.Float32bits(a.X) == math.Float32bits(b.X) &&
		math.Float32bits(a.Y) == math.Float32bits(b.Y) &&
		math.Float32bits(a.Z) == math.Float32bits(b.Z) &&
		math.Float32bits(a.W) == math.Float32bits(b.W)
}

// refTexture builds the i-th texture of the differential matrix: the
// procedural kinds and every storage format with real data, over square,
// non-square and 1x1 shapes.
func refTexture(kind, format, shape int) *Texture {
	shapes := [][2]int{{64, 64}, {128, 16}, {4, 32}, {1, 1}, {2, 1}, {16, 8}}
	sh := shapes[shape%len(shapes)]
	w, h := sh[0], sh[1]
	f := Format(format % len(formatNames))
	var tex *Texture
	switch kind % 4 {
	case 0:
		tex = MustNew("checker", f, w, h, Checker(3, RGBA{250, 10, 128, 255}, RGBA{5, 200, 60, 17}))
	case 1:
		tex = MustNew("noise", f, w, h, Noise(uint32(format*7+shape)))
	case 2:
		img := make([]RGBA, w*h)
		for i := range img {
			hv := hash3(uint32(i), uint32(format), uint32(shape))
			img[i] = RGBA{uint8(hv), uint8(hv >> 8), uint8(hv >> 16), uint8(hv >> 24)}
		}
		var err error
		if tex, err = FromRGBA("data", f, w, h, img); err != nil {
			panic(err)
		}
	default:
		tex = MustNew("empty", f, w, h, nil)
	}
	// An unaligned base: mip bases below 64 B are not line-aligned
	// either, and the kernel must not assume alignment anywhere.
	tex.BaseAddr = 0x10000 + uint64(shape)*0x1234 + uint64(kind)*8
	return tex
}

// l0Geometries are the L0 shapes the kernel must match the reference
// under: the Table XIV default, smaller and larger lines, and a
// direct-mapped cache whose every conflict evicts.
var l0Geometries = []cache.Config{
	L0Config,
	{Ways: 64, Sets: 1, LineBytes: 16},
	{Ways: 32, Sets: 1, LineBytes: 32},
	{Ways: 16, Sets: 1, LineBytes: 128},
	{Ways: 1, Sets: 1, LineBytes: 64},
	{Ways: 1, Sets: 4, LineBytes: 16},
}

// runRefOps drives a refPair through n random operations from rng:
// direct bilinear and nearest samples at every level (including
// out-of-range levels, which clamp) and whole-quad SampleQuad calls
// under all four filter modes, with wrapping and negative coordinates.
func runRefOps(t *testing.T, p *refPair, tex *Texture, rng *rand.Rand, n int) {
	t.Helper()
	coord := func() float32 {
		switch rng.Intn(4) {
		case 0:
			return rng.Float32() // in range
		case 1:
			return rng.Float32()*8 - 4 // wraps, negative
		case 2:
			return float32(rng.Intn(9)-4) / 2 // exact texel edges
		default:
			return rng.Float32()*2e4 - 1e4 // far away
		}
	}
	for op := 0; op < n; op++ {
		switch rng.Intn(3) {
		case 0:
			s, tc, lv := coord(), coord(), rng.Intn(tex.Levels()+2)-1
			g, w := p.got.bilinear(tex, s, tc, lv), refBilinear(p.want, tex, s, tc, lv)
			if !sameBits(g, w) {
				t.Fatalf("op %d: bilinear(%v, %v, lv%d) = %v, reference %v", op, s, tc, lv, g, w)
			}
			p.check(t, fmt.Sprintf("op %d bilinear(%v, %v, lv%d)", op, s, tc, lv))
		case 1:
			s, tc, lv := coord(), coord(), rng.Intn(tex.Levels()+2)-1
			g, w := p.got.nearest(tex, s, tc, lv), refFetchNearest(p.want, tex, s, tc, lv)
			if !sameBits(g, w) {
				t.Fatalf("op %d: nearest(%v, %v, lv%d) = %v, reference %v", op, s, tc, lv, g, w)
			}
			p.check(t, fmt.Sprintf("op %d nearest(%v, %v, lv%d)", op, s, tc, lv))
		default:
			st := SamplerState{
				Filter:   FilterMode(rng.Intn(4)),
				MaxAniso: rng.Intn(17),
				LODBias:  float32(rng.Intn(5)-2) / 2,
			}
			p.bind(tex, st)
			s, tc := coord(), coord()
			// Footprints from magnified to heavily minified and
			// anisotropic, in either axis.
			du := float32(math.Ldexp(1, rng.Intn(12)-4)) / float32(tex.Width)
			dv := float32(math.Ldexp(1, rng.Intn(12)-4)) / float32(tex.Height)
			coords := quadCoords(s, tc, du, dv)
			projective := rng.Intn(4) == 0
			if projective {
				for i := range coords {
					coords[i] = coords[i].Scale(1.5)
				}
			}
			g := p.got.SampleQuad(0, &coords, 0, projective)
			w := refSampleQuad(p.want, 0, &coords, 0, projective)
			for lane := range g {
				if !sameBits(g[lane], w[lane]) {
					t.Fatalf("op %d: SampleQuad %+v lane %d = %v, reference %v", op, st, lane, g[lane], w[lane])
				}
			}
			p.check(t, fmt.Sprintf("op %d SampleQuad(%+v)", op, st))
		}
	}
}

// TestBilinearMatchesReference runs the fused kernel and the per-texel
// reference over every texture kind, storage format and shape of the
// matrix and every L0 geometry, and demands identical colors and
// counters after every operation.
func TestBilinearMatchesReference(t *testing.T) {
	for _, l0 := range l0Geometries {
		for kind := 0; kind < 4; kind++ {
			for format := range formatNames {
				for shape := 0; shape < 6; shape++ {
					tex := refTexture(kind, format, shape)
					name := fmt.Sprintf("%v/%s/%v/%dx%d", l0, tex.Name, tex.Format, tex.Width, tex.Height)
					t.Run(name, func(t *testing.T) {
						p := newRefPair(l0)
						rng := rand.New(rand.NewSource(int64(kind*100 + format*10 + shape)))
						runRefOps(t, p, tex, rng, 300)
					})
				}
			}
		}
	}
}

// FuzzBilinearMatchesReference searches for inputs on which the fused
// kernel and the per-texel reference disagree: the fuzzer picks the
// texture, the L0 geometry and the seed of the operation stream.
func FuzzBilinearMatchesReference(f *testing.F) {
	f.Add(uint8(0), uint8(2), uint8(0), uint8(0), int64(1))
	f.Add(uint8(2), uint8(4), uint8(3), uint8(1), int64(2))
	f.Add(uint8(1), uint8(0), uint8(1), uint8(4), int64(3))
	f.Fuzz(func(t *testing.T, kind, format, shape, l0 uint8, seed int64) {
		tex := refTexture(int(kind), int(format), int(shape))
		p := newRefPair(l0Geometries[int(l0)%len(l0Geometries)])
		runRefOps(t, p, tex, rand.New(rand.NewSource(seed)), 300)
	})
}
