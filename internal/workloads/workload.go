package workloads

import (
	"fmt"
	"math"

	"gpuchar/internal/geom"
	"gpuchar/internal/gfxapi"
	"gpuchar/internal/gmath"
	"gpuchar/internal/shader"
	"gpuchar/internal/texture"
)

// Workload drives one profile's synthetic timedemo through a device.
// Create it with New, then call RenderFrame repeatedly (or Run).
type Workload struct {
	Prof *Profile
	Dev  *gfxapi.Device
	W, H int

	rng uint32

	// Shader program variants. Averages of Tables IV and XII are hit by
	// dithering between the floor and ceiling integer program lengths,
	// weighted by batch indices.
	vsLo, vsHi   *shader.Program
	vsLo2, vsHi2 *shader.Program // Oblivion region 2
	fsVar        [2][2]*shader.Program
	fsAlphaVar   [2][2]*shader.Program
	fsDepth      *shader.Program

	vsSumW, vsHiW                float64
	fsSumW, fsInstrHiW, fsTexHiW float64

	textures  []*texture.Texture
	alphaTex  *texture.Texture
	texCursor int

	// Scene meshes (simulated profiles).
	visFull    []layerMesh
	visPartial layerMesh
	interleave layerMesh
	hidden     []layerMesh
	hiddenPart layerMesh
	foliage    []layerMesh

	// Stencil shadow geometry.
	volShadow   mesh // back-face quad behind the scene over the shadow rect
	volPairBack mesh // balanced fail pair, back then front
	volPairFrnt mesh
	volPass     mesh // quads in front of the scene

	// Multi-pass resources (StyleDeferred/StyleShadowMap/StyleParticle):
	// the off-screen targets created at setup and the full-screen quad
	// that samples their resolves.
	rts    []*gfxapi.RenderTarget
	fsQuad mesh

	// Ribbon chunk pools.
	filler *chunkedRibbon
	clipR  *chunkedRibbon
	cullR  *chunkedRibbon
	// Strip/fan ribbons for non-TL primitive mixes (API-only profiles).
	stripR *chunkedRibbon
	fanR   *chunkedRibbon

	// Per-frame plan.
	passes         int
	fixedTrisPass  int // grid + foliage triangles drawn per pass
	volumeTris     int // volume triangles per frame
	frameIdx       int
	regionBoundary int
	accChunks      [3]float64 // dither carry for filler/clip/cull chunk counts
	scratch        renderScratch

	setupDone bool
}

// layerMesh is a grid layer plus its depth.
type layerMesh struct {
	mesh
	z float32
}

// chunkedRibbon partitions one long ribbon into batch-sized index
// buffers created at setup time.
type chunkedRibbon struct {
	vb       *geom.VertexBuffer
	chunks   []*geom.IndexBuffer
	chunkTri int
}

// New prepares a workload for the given profile on a device rendering
// at w x h (the paper uses 1024x768).
func New(prof *Profile, dev *gfxapi.Device, w, h int) *Workload {
	return &Workload{
		Prof: prof, Dev: dev, W: w, H: h, rng: 0x9E3779B9,
		regionBoundary: prof.Frames / 2,
	}
}

// SetRegionBoundary overrides the frame at which two-region demos
// (Oblivion) switch to their second vertex-shader regime. Short
// characterization runs scale the boundary to the run length so both
// regions are sampled.
func (wl *Workload) SetRegionBoundary(frame int) { wl.regionBoundary = frame }

// Run executes Setup plus n frames (clamped to nothing if n <= 0).
func (wl *Workload) Run(n int) error {
	if err := wl.Setup(); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		wl.RenderFrame()
	}
	return nil
}

// nextRand is a small deterministic LCG; the generators avoid math/rand
// so that trace replays and tests are bit-stable across Go versions.
func (wl *Workload) nextRand() uint32 {
	wl.rng = wl.rng*1664525 + 1013904223
	return wl.rng
}

// Setup creates every resource the demo needs: the Figure 3 startup
// spike falls out of the creation burst landing in frame 0.
func (wl *Workload) Setup() error {
	if wl.setupDone {
		return nil
	}
	p := wl.Prof
	if err := wl.buildPrograms(); err != nil {
		return err
	}
	if err := wl.buildTextures(); err != nil {
		return err
	}
	// passes counts how many times the scene geometry is drawn per frame
	// (the chunkCounts budget divisor), not the total pass count: the
	// deferred lighting and particle composite passes draw only
	// full-screen quads.
	wl.passes = 1
	if p.Simulated {
		switch p.Sim.Style {
		case StyleStencilShadow:
			wl.passes = 1 + p.Sim.Lights
		case StyleShadowMap:
			wl.passes = p.Sim.Cascades + 1
		}
	}
	if p.Simulated {
		wl.buildScene()
	}
	wl.buildRibbons()
	if err := wl.buildMultipass(); err != nil {
		return err
	}
	// Level-load burst: games issue thousands of state and creation
	// calls while loading, producing the startup spike of Figure 3.
	wl.emitStateCalls(8000)
	wl.setupDone = true
	return nil
}

func (wl *Workload) buildPrograms() error {
	p := wl.Prof
	mk := func(name string, instr float64) (lo, hi *shader.Program, err error) {
		fl := int(math.Floor(instr))
		if fl < 4 {
			fl = 4
		}
		lo, err = shader.SynthesizeVS(name+"-lo", fl)
		if err != nil {
			return nil, nil, err
		}
		hi, err = shader.SynthesizeVS(name+"-hi", fl+1)
		return lo, hi, err
	}
	var err error
	if wl.vsLo, wl.vsHi, err = mk(p.Game+"-vs", p.VSInstr); err != nil {
		return err
	}
	if p.VSInstr2 > 0 {
		if wl.vsLo2, wl.vsHi2, err = mk(p.Game+"-vs2", p.VSInstr2); err != nil {
			return err
		}
	}

	fi := int(math.Floor(p.FSInstr))
	ft := int(math.Floor(p.FSTex))
	if ft < 1 {
		ft = 1
	}
	units := minI(4, ft+1)
	for ih := 0; ih < 2; ih++ {
		for th := 0; th < 2; th++ {
			total, tex := fi+ih, ft+th
			if total < tex+1 {
				total = tex + 1
			}
			fs, err := shader.SynthesizeFS(
				fmt.Sprintf("%s-fs-%d-%d", p.Game, total, tex), total, tex, units)
			if err != nil {
				return err
			}
			wl.fsVar[ih][th] = fs
			if total < tex+3 {
				total = tex + 3
			}
			afs, err := shader.SynthesizeAlphaFS(
				fmt.Sprintf("%s-afs-%d-%d", p.Game, total, tex), total, tex, units)
			if err != nil {
				return err
			}
			wl.fsAlphaVar[ih][th] = afs
		}
	}
	wl.fsDepth = shader.StencilVolumeFS()
	// Register every program with the device so draws referencing them
	// can be traced and replayed.
	progs := []*shader.Program{wl.vsLo, wl.vsHi, wl.fsDepth}
	if wl.vsLo2 != nil {
		progs = append(progs, wl.vsLo2, wl.vsHi2)
	}
	for ih := 0; ih < 2; ih++ {
		for th := 0; th < 2; th++ {
			progs = append(progs, wl.fsVar[ih][th], wl.fsAlphaVar[ih][th])
		}
	}
	for _, prog := range progs {
		if _, err := wl.Dev.CreateProgram(prog); err != nil {
			return err
		}
	}
	return nil
}

func (wl *Workload) buildTextures() error {
	p := wl.Prof
	n := p.Sim.NumTextures
	if n == 0 {
		n = 8
	}
	size := p.Sim.TexSize
	if size == 0 {
		size = 256
	}
	for i := 0; i < n; i++ {
		// The paper's games mix DXT1/3/5 (§III.E). The Doom3-engine
		// titles lean on DXT1 (normal-map tricks aside), and the
		// 16-byte-block formats double per-texel footprint, so the
		// stencil-shadow profiles stay DXT1-heavy.
		format := texture.FormatDXT1
		if p.Sim.Style != StyleStencilShadow {
			switch i % 4 {
			case 1:
				format = texture.FormatDXT5
			case 3:
				format = texture.FormatDXT3
			}
		}
		tex, err := wl.Dev.CreateTexture(gfxapi.TextureSpec{
			Name:   fmt.Sprintf("%s-tex%d", p.Game, i),
			Format: format, W: size, H: size,
			Kind: gfxapi.KindNoise, Seed: uint32(i)*977 + 13,
		})
		if err != nil {
			return err
		}
		wl.textures = append(wl.textures, tex)
	}
	// Alpha-tested foliage texture: block noise keeps the filtered
	// alpha distribution controllable.
	alpha, err := wl.Dev.CreateTexture(gfxapi.TextureSpec{
		Name:   p.Game + "-foliage",
		Format: texture.FormatDXT5, W: size, H: size,
		Kind: gfxapi.KindBlockNoise, Seed: 0xF01, Cell: 16,
	})
	if err != nil {
		return err
	}
	wl.alphaTex = alpha
	return nil
}

// opaqueSampler returns the Table I filtering configuration.
func (wl *Workload) opaqueSampler() texture.SamplerState {
	bias := float32(wl.Prof.Sim.LODBias)
	if wl.Prof.AnisoLevel > 0 {
		return texture.SamplerState{
			Filter: texture.FilterAniso, MaxAniso: wl.Prof.AnisoLevel,
			LODBias: bias,
		}
	}
	return texture.SamplerState{Filter: texture.FilterTrilinear, LODBias: bias}
}

// buildScene constructs the layered grids and shadow volumes of a
// simulated profile.
func (wl *Workload) buildScene() {
	p := wl.Prof
	sp := &p.Sim
	stride := sp.VertexStride
	if stride == 0 {
		stride = 48
	}
	ib := p.BytesPerIndex

	// Grid UVs are normalized, so one texel per pixel is 1/texSize per
	// pixel. A horizontal AnisoFrac share of every visible layer gets a
	// 4x vertical tiling, giving those fragments the 4-probe anisotropic
	// footprints that drive Table XIII.
	texSize := sp.TexSize
	if texSize == 0 {
		texSize = 256
	}
	// The negative LOD bias only bites when the base footprint is
	// correspondingly denser: 2^-bias texels per pixel biased back to
	// mip level 0.
	baseTile := math.Pow(2, -sp.LODBias) / float64(texSize)
	anisoW := 0
	if p.AnisoLevel > 0 {
		anisoW = int(float64(wl.W)*sp.AnisoFrac) &^ 1
	}

	visGridCov := sp.VisibleLayers - sp.FillerCoverage
	if visGridCov < 0 {
		visGridCov = 0
	}
	nFull := int(visGridCov)
	fracW := int(float64(wl.W)*(visGridCov-float64(nFull))) &^ 1
	zStep := float32(0.02)
	z := float32(0.40) + zStep*float32(nFull)
	for i := 0; i < nFull; i++ {
		wl.visFull = append(wl.visFull, layerMesh{z: z})
		wl.visFull[i].mesh = wl.splitLayer(0, wl.W, z, anisoW, sp.BigCell,
			baseTile, stride, ib)
		z -= zStep
	}
	if fracW > 2 {
		wl.visPartial = layerMesh{z: z}
		wl.visPartial.mesh = wl.splitLayer(0, fracW, z, minI(anisoW, fracW),
			sp.BigCell, baseTile, stride, ib)
	}

	// Interleave layer: depth between the two backmost visible layers,
	// drawn after them so it fails the fine z test but not HZ.
	if sp.InterleaveLayers > 0 && nFull >= 2 {
		iz := wl.visFull[1].z + zStep/2
		iw := int(float64(wl.W)*sp.InterleaveLayers) &^ 1
		wl.interleave = layerMesh{z: iz}
		wl.interleave.mesh = gridMesh(wl.Dev, 0, 0, iw, wl.H, sp.BigCell, iz,
			baseTile, baseTile, stride, ib, wl.W, wl.H)
	}

	// Hidden layers behind everything: HZ fodder.
	nHid := int(sp.HiddenLayers)
	hz := float32(0.60)
	for i := 0; i < nHid; i++ {
		lm := layerMesh{z: hz}
		lm.mesh = gridMesh(wl.Dev, 0, 0, wl.W, wl.H, sp.BigCell, hz,
			baseTile, baseTile, stride, ib, wl.W, wl.H)
		wl.hidden = append(wl.hidden, lm)
		hz += zStep
	}
	if hFrac := sp.HiddenLayers - float64(nHid); hFrac > 0.01 {
		hw := int(float64(wl.W)*hFrac) &^ 1
		wl.hiddenPart = layerMesh{z: hz}
		wl.hiddenPart.mesh = gridMesh(wl.Dev, 0, 0, hw, wl.H, sp.BigCell, hz,
			baseTile, baseTile, stride, ib, wl.W, wl.H)
	}

	// Alpha foliage layers at the front.
	if sp.AlphaCoverage > 0 {
		nFol := int(sp.AlphaCoverage)
		fz := float32(0.22)
		for i := 0; i < nFol; i++ {
			lm := layerMesh{z: fz}
			lm.mesh = gridMesh(wl.Dev, 0, 0, wl.W, wl.H, sp.BigCell, fz,
				baseTile, baseTile, stride, ib, wl.W, wl.H)
			wl.foliage = append(wl.foliage, lm)
			fz -= zStep
		}
		if fFrac := sp.AlphaCoverage - float64(nFol); fFrac > 0.01 {
			fw := int(float64(wl.W)*fFrac) &^ 1
			lm := layerMesh{z: fz}
			lm.mesh = gridMesh(wl.Dev, 0, 0, fw, wl.H, sp.BigCell, fz,
				baseTile, baseTile, stride, ib, wl.W, wl.H)
			wl.foliage = append(wl.foliage, lm)
		}
	}

	// Shadow volumes, sized per frame and drawn once per light.
	if sp.Style == StyleStencilShadow && sp.Lights > 0 {
		volCell := 256
		lights := float64(sp.Lights)
		// Shadow rect: back faces behind the scene over ShadowCoverage.
		// Placed at the right edge so the shadowed (never-lit) region
		// does not preferentially eat the anisotropic strip on the left.
		sw := int(float64(wl.W)*sp.ShadowCoverage) &^ 1
		wl.volShadow = gridMesh(wl.Dev, wl.W-sw, 0, wl.W, wl.H, volCell, 0.85,
			baseTile, baseTile, stride, ib, wl.W, wl.H)
		// Balanced fail pair: +1 then -1 over the same area behind the
		// scene; per-light coverage derived from the frame budget.
		pairCov := (sp.VolumeFailCoverage - sp.ShadowCoverage*lights) / (2 * lights)
		if pairCov < 0 {
			pairCov = 0
		}
		pw := clampI(int(float64(wl.W)*pairCov)&^1, 0, wl.W)
		if pw > 2 {
			wl.volPairBack = gridMesh(wl.Dev, 0, 0, pw, wl.H, volCell, 0.87,
				baseTile, baseTile, stride, ib, wl.W, wl.H)
			wl.volPairFrnt = gridMesh(wl.Dev, 0, 0, pw, wl.H, volCell, 0.88,
				baseTile, baseTile, stride, ib, wl.W, wl.H)
		}
		// Passing volume quads in front of the scene.
		passCov := sp.VolumePassCoverage / lights
		nPass := int(math.Round(passCov))
		if nPass < 1 && passCov > 0.05 {
			nPass = 1
		}
		if nPass >= 1 {
			wl.volPass = gridMesh(wl.Dev, 0, 0, wl.W, wl.H, volCell, 0.18,
				baseTile, baseTile, stride, ib, wl.W, wl.H)
		}
		wl.volumeTris = (wl.volShadow.tris + 2*wl.volPairBack.tris +
			nPass*wl.volPass.tris) * sp.Lights
	}

	for _, lm := range wl.visFull {
		wl.fixedTrisPass += lm.tris
	}
	wl.fixedTrisPass += wl.visPartial.tris + wl.interleave.tris
	for _, lm := range wl.hidden {
		wl.fixedTrisPass += lm.tris
	}
	wl.fixedTrisPass += wl.hiddenPart.tris
	for _, lm := range wl.foliage {
		wl.fixedTrisPass += lm.tris
	}
}

// splitLayer builds one full-height layer as two adjacent grids: an
// anisotropically tiled strip of width anisoW and an isotropic rest.
// Both halves share one draw (their buffers are merged) to keep the
// batch count stable; merging index buffers over two vertex buffers is
// not possible, so the halves are drawn as one mesh with combined
// attributes.
func (wl *Workload) splitLayer(x0, x1 int, z float32, anisoW, cell int,
	baseTile float64, stride, ib int) mesh {

	if anisoW <= 2 {
		return gridMesh(wl.Dev, x0, 0, x1, wl.H, cell, z,
			baseTile, baseTile, stride, ib, wl.W, wl.H)
	}
	if anisoW >= x1-x0 {
		return gridMesh(wl.Dev, x0, 0, x1, wl.H, cell, z,
			baseTile, baseTile*4, stride, ib, wl.W, wl.H)
	}
	a := gridMesh(wl.Dev, x0, 0, x0+anisoW, wl.H, cell, z,
		baseTile, baseTile*4, stride, ib, wl.W, wl.H)
	b := gridMesh(wl.Dev, x0+anisoW, 0, x1, wl.H, cell, z,
		baseTile, baseTile, stride, ib, wl.W, wl.H)
	return mergeMeshes(wl.Dev, a, b, stride, ib)
}

// buildRibbons sizes and creates the chunked filler/clip/cull ribbons.
func (wl *Workload) buildRibbons() {
	p := wl.Prof
	stride := 48
	if p.Simulated && p.Sim.VertexStride != 0 {
		stride = p.Sim.VertexStride
	}
	ib := p.BytesPerIndex

	assembled := wl.assembledTarget(1.0)
	perPass := (assembled - wl.volumeTris) / wl.passes
	clipT := int(p.Sim.ClipFrac * float64(assembled) / float64(wl.passes))
	cullT := int(p.Sim.CullFrac * float64(assembled) / float64(wl.passes))
	fillT := perPass - clipT - cullT - wl.fixedTrisPass
	if fillT < 1 {
		fillT = 1
	}
	// Filler triangle size from the coverage budget.
	triPx := 8.0
	if p.Simulated && p.Sim.FillerCoverage > 0 {
		triPx = p.Sim.FillerCoverage * float64(wl.W*wl.H) / float64(fillT)
		triPx = math.Max(4, math.Min(triPx, 256))
	}

	chunkTri := maxI(p.AvgIndicesPerBatch/3, 8)
	capScale := 1.5 // headroom for the per-frame modulation
	mkChunks := func(total int, kind ribbonKind, z float32, seed uint32) *chunkedRibbon {
		capTris := int(float64(total)*capScale) + chunkTri
		m := ribbonMesh(wl.Dev, capTris, kind, z, triPx, seed, stride, ib, wl.W, wl.H)
		cr := &chunkedRibbon{vb: m.vb, chunkTri: chunkTri}
		for start := 0; start+chunkTri <= m.tris; start += chunkTri {
			idx := m.ib.Indices[3*start : 3*(start+chunkTri)]
			cr.chunks = append(cr.chunks, wl.Dev.CreateIndexBuffer(idx, ib))
		}
		return cr
	}
	wl.filler = mkChunks(fillT, ribbonVisible, 0.24, 11)
	wl.clipR = mkChunks(clipT, ribbonClipped, 0.5, 23)
	wl.cullR = mkChunks(cullT, ribbonCulled, 0.5, 37)

	// Strip and fan chunks use runs of sequential indices over a ribbon:
	// the zig-zag vertex order is exactly a triangle strip.
	mkSeq := func(total int, z float32, seed uint32) *chunkedRibbon {
		// A strip batch of AvgIndicesPerBatch indices holds idx-2
		// triangles, keeping Table III's indices-per-batch on target.
		sChunk := maxI(p.AvgIndicesPerBatch-2, 8)
		capTris := int(float64(total)*capScale) + sChunk
		m := ribbonMesh(wl.Dev, capTris, ribbonVisible, z, triPx, seed, stride, ib, wl.W, wl.H)
		cr := &chunkedRibbon{vb: m.vb, chunkTri: sChunk}
		seq := make([]uint32, m.tris+2)
		for i := range seq {
			seq[i] = uint32(i)
		}
		for start := 0; start+sChunk+2 <= len(seq); start += sChunk {
			cr.chunks = append(cr.chunks,
				wl.Dev.CreateIndexBuffer(seq[start:start+sChunk+2], ib))
		}
		return cr
	}
	if p.PrimMix[1] > 0 {
		wl.stripR = mkSeq(int(p.PrimMix[1]*float64(assembled)), 0.26, 41)
	}
	if p.PrimMix[2] > 0 {
		wl.fanR = wl.buildFanRibbon(assembled, stride, ib, triPx)
	}
}

// buildFanRibbon creates the triangle-fan pool. Fan batches over a
// ribbon path produce long slivers, so for simulated profiles the fan
// geometry is placed off-frustum: the indices still count toward the
// Table V mix (0.1% for UT2004) but the rasterizer never sees the
// slivers. API-only profiles keep on-screen fans sized to the per-batch
// index average.
func (wl *Workload) buildFanRibbon(assembled int, stride, ib int, triPx float64) *chunkedRibbon {
	p := wl.Prof
	kind := ribbonVisible
	chunkIdx := p.AvgIndicesPerBatch
	if p.Simulated {
		kind = ribbonClipped
		chunkIdx = maxI(int(p.PrimMix[2]*float64(p.AvgIndicesPerFrame)), 18)
	}
	sChunk := maxI(chunkIdx-2, 8)
	total := maxI(int(p.PrimMix[2]*float64(assembled)), 4*sChunk)
	m := ribbonMesh(wl.Dev, total+sChunk, kind, 0.28, triPx, 43, stride, ib, wl.W, wl.H)
	cr := &chunkedRibbon{vb: m.vb, chunkTri: sChunk}
	seq := make([]uint32, m.tris+2)
	for i := range seq {
		seq[i] = uint32(i)
	}
	for start := 0; start+sChunk+2 <= len(seq); start += sChunk {
		cr.chunks = append(cr.chunks,
			wl.Dev.CreateIndexBuffer(seq[start:start+sChunk+2], ib))
	}
	return cr
}

// assembledTarget converts the per-frame index target (scaled by the
// frame modulation m) into assembled triangles using the Table V mix.
func (wl *Workload) assembledTarget(m float64) int {
	p := wl.Prof
	idx := float64(p.AvgIndicesPerFrame) * m
	// Triangle lists: 3 indices per triangle. Strips and fans: 1 index
	// per triangle plus 2 per batch (negligible at calibration scale).
	perTri := 3*p.PrimMix[0] + p.PrimMix[1] + p.PrimMix[2]
	if perTri <= 0 {
		perTri = 3
	}
	return int(idx / perTri)
}

// frameMod is the deterministic per-frame activity modulation behind
// the variability of Figures 1 and 2.
func (wl *Workload) frameMod(i int) float64 {
	a := math.Sin(2 * math.Pi * float64(i) / 137)
	b := math.Sin(2*math.Pi*float64(i)/29 + 1.3)
	return 1 + 0.25*a + 0.1*b
}

// pickVS dithers between the floor/ceiling vertex programs so the
// index-weighted average lands on Table IV.
func (wl *Workload) pickVS(weight float64) *shader.Program {
	target := wl.Prof.VSInstr
	lo, hi := wl.vsLo, wl.vsHi
	if wl.Prof.VSInstr2 > 0 && wl.frameIdx >= wl.regionBoundary {
		target = wl.Prof.VSInstr2
		lo, hi = wl.vsLo2, wl.vsHi2
	}
	frac := target - math.Floor(target)
	wl.vsSumW += weight
	if wl.vsHiW < frac*wl.vsSumW {
		wl.vsHiW += weight
		return hi
	}
	return lo
}

// pickFS dithers across the four fragment program variants to land the
// Table XII averages; alpha selects the KIL-bearing variants.
func (wl *Workload) pickFS(weight float64, alpha bool) *shader.Program {
	fracI := wl.Prof.FSInstr - math.Floor(wl.Prof.FSInstr)
	fracT := wl.Prof.FSTex - math.Floor(wl.Prof.FSTex)
	wl.fsSumW += weight
	ih, th := 0, 0
	if wl.fsInstrHiW < fracI*wl.fsSumW {
		wl.fsInstrHiW += weight
		ih = 1
	}
	if wl.fsTexHiW < fracT*wl.fsSumW {
		wl.fsTexHiW += weight
		th = 1
	}
	if alpha {
		return wl.fsAlphaVar[ih][th]
	}
	return wl.fsVar[ih][th]
}

// bindNextTextures rotates the texture set bound to units 0-3.
func (wl *Workload) bindNextTextures() {
	st := wl.opaqueSampler()
	for u := 0; u < minI(4, len(wl.textures)); u++ {
		wl.Dev.BindTexture(u, wl.textures[(wl.texCursor+u)%len(wl.textures)], st)
	}
	wl.texCursor++
}

// emitStateCalls pads the frame's state-call count toward the Figure 3
// steady level: a couple of constant uploads per batch.
func (wl *Workload) emitStateCalls(n int) {
	for i := 0; i < n; i++ {
		slot := 16 + int(wl.nextRand()%32)
		v := float32(wl.nextRand()%1000) / 1000
		wl.Dev.SetConst(slot, gmath.V4(v, v*0.5, 1-v, 1))
	}
}

// RenderFrame issues one frame of API calls (and simulation work when
// the device's backend is the GPU).
func (wl *Workload) RenderFrame() {
	if !wl.setupDone {
		if err := wl.Setup(); err != nil {
			panic(fmt.Sprintf("workloads: setup %s: %v", wl.Prof.Name, err))
		}
	}
	if wl.Prof.Simulated {
		switch wl.Prof.Sim.Style {
		case StyleStencilShadow:
			wl.renderStencilFrame()
		case StyleDeferred:
			wl.renderDeferredFrame()
		case StyleShadowMap:
			wl.renderShadowMapFrame()
		case StyleParticle:
			wl.renderParticleFrame()
		default:
			wl.renderForwardFrame()
		}
	} else {
		wl.renderAPIOnlyFrame()
	}
	wl.frameIdx++
	wl.Dev.EndFrame()
}

func clampI(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}
