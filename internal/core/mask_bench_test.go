package core

import (
	"testing"

	"fscoherence/internal/coherence"
	"fscoherence/internal/memsys"
	"fscoherence/internal/stats"
)

// Micro-benchmarks for the batched byte-mask hot paths (the data-layout round
// riding along with the sampling engine): the closed-form PAM grain mask, the
// PAM permission check and invalidation take, and the packed SAM merge-mask
// expansion. Each batched benchmark is paired with a *LoopRef twin running the
// pre-optimization per-grain/per-byte reference loop, so one `go test -bench`
// run shows both the optimized path and the speedup ratio.

// maskLoopRef is the replaced per-grain PAM mask loop.
func maskLoopRef(p *PAM, off, size int) uint64 {
	lo, hi := p.cfg.grainRange(off, size)
	if hi < lo {
		return 0
	}
	var m uint64
	for g := lo; g <= hi; g++ {
		m |= 1 << uint(g)
	}
	return m
}

// mergeMaskLoopRef is the replaced []bool per-byte MergeMask expansion.
func mergeMaskLoopRef(d *DirSide, addr memsys.Addr, core int) []bool {
	mask := make([]bool, d.cfg.BlockSize)
	e := d.sam.peek(addr)
	if e == nil {
		return mask
	}
	for g := 0; g < d.cfg.grains(); g++ {
		if e.lastWriter[g] == int16(core) {
			for b := g * d.cfg.Granularity; b < (g+1)*d.cfg.Granularity; b++ {
				mask[b] = true
			}
		}
	}
	return mask
}

func benchPAM(gran int) *PAM {
	p := NewPAM(pamCfg(gran), 0, stats.NewSet())
	p.Allocate(0x1000, false)
	for off := 0; off < 64; off += 16 {
		p.OnAccess(0x1000, off, 8, off%32 == 0)
	}
	return p
}

func BenchmarkPAMMask(b *testing.B) {
	p := benchPAM(1)
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc ^= p.mask(i%56, 8)
	}
	sinkU64 = acc
}

func BenchmarkPAMMaskLoopRef(b *testing.B) {
	p := benchPAM(1)
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc ^= maskLoopRef(p, i%56, 8)
	}
	sinkU64 = acc
}

func BenchmarkPAMHasBits(b *testing.B) {
	p := benchPAM(1)
	n := 0
	for i := 0; i < b.N; i++ {
		if p.HasBits(0x1000, (i%8)*8, 8, i%2 == 0) {
			n++
		}
	}
	sinkInt = n
}

func BenchmarkPAMTakeEntry(b *testing.B) {
	p := benchPAM(1)
	var acc uint64
	for i := 0; i < b.N; i++ {
		r, w, _, _ := p.TakeEntry(0x1000)
		acc ^= r ^ w
		p.Allocate(0x1000, false)
		p.OnAccess(0x1000, 0, 8, true)
	}
	sinkU64 = acc
}

func benchDirSide(gran int) *DirSide {
	cfg := DefaultConfig(8, 64, coherence.FSLite)
	cfg.Granularity = gran
	d := NewDirSide(cfg, 0, stats.NewSet())
	// A privatized-episode SAM entry with interleaved last-writers: the
	// per-slot pattern of a falsely shared line.
	d.OnPrivatize(0x2000)
	for c := 0; c < 8; c++ {
		d.RecordBytes(0x2000, c, c*8, 8, true)
	}
	return d
}

func BenchmarkSAMMergeMask(b *testing.B) {
	d := benchDirSide(1)
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc ^= d.MergeMask(0x2000, i%8)
	}
	sinkU64 = acc
}

func BenchmarkSAMMergeMaskLoopRef(b *testing.B) {
	d := benchDirSide(1)
	n := 0
	for i := 0; i < b.N; i++ {
		m := mergeMaskLoopRef(d, 0x2000, i%8)
		if m[(i%8)*8] {
			n++
		}
	}
	sinkInt = n
}

var (
	sinkU64 uint64
	sinkInt int
)
