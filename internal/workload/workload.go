// Package workload provides synthetic multithreaded workload models for the
// benchmarks of the paper's Table III (PHOENIX, PARSEC, Synchrobench and the
// Huron artifact) plus microbenchmarks used for protocol validation.
//
// We do not have the benchmark binaries or a full-system x86 platform; per
// the reproduction's substitution rule (DESIGN.md), each model reproduces the
// benchmark's *sharing structure* — which lines are falsely shared, how
// intensely, with what compute density, synchronization and working set —
// because FSDetect/FSLite key only on the dynamic byte-level sharing pattern
// of cache lines. Workload parameters are calibrated so the baseline L1D
// miss fractions land in the range of the paper's Fig. 13 and the
// false-sharing intensity ordering (RC >> LR, LT, LL >> BS, SF, SM, SC)
// matches the paper.
//
// Each benchmark has up to three layout variants:
//
//   - VariantDefault: the original (falsely shared) data layout.
//   - VariantPadded: the "manually fixed" layout (Fig. 2) — contended fields
//     padded to cache-line granularity, inflating the working set (LT) or
//     adding address-arithmetic work (RC), which is how the paper explains
//     FSLite beating the manual fix.
//   - VariantHuron: the layout Huron's compile-time repair produces (Fig. 17)
//     — padding for the instances its static analysis finds (partial for RC),
//     plus a small instruction-count reduction for BS.
package workload

import (
	"fmt"
	"sort"

	"fscoherence/internal/coherence"
	"fscoherence/internal/cpu"
	"fscoherence/internal/forensics"
	"fscoherence/internal/memsys"
)

// Variant selects a data layout.
type Variant int

const (
	VariantDefault Variant = iota
	VariantPadded
	VariantHuron
)

func (v Variant) String() string {
	switch v {
	case VariantDefault:
		return "default"
	case VariantPadded:
		return "padded"
	case VariantHuron:
		return "huron"
	}
	return "?"
}

// Scale controls how much work a workload performs. Iters is the main
// iteration knob; 1.0 reproduces the calibrated experiment size.
type Scale float64

// n scales a base iteration count.
func (s Scale) n(base int) int {
	v := int(float64(base) * float64(s))
	if v < 1 {
		v = 1
	}
	return v
}

// Spec describes one benchmark model.
type Spec struct {
	// Name is the two-letter code used throughout the paper (RC, LR, ...).
	Name string
	// Full is the benchmark's full name.
	Full string
	// Suite is the originating benchmark suite.
	Suite string
	// FalseSharing reports whether the benchmark suffers from false sharing
	// (Table III).
	FalseSharing bool
	// Threads is the number of worker threads (the paper evaluates with 4
	// child threads on 8 cores).
	Threads int
	// HuronSupported marks benchmarks present in the Huron artifact
	// comparison (Fig. 17).
	HuronSupported bool
	// Build constructs the per-thread functions for a layout variant.
	// Builders allocate from the caller's Arena so the allocation-time
	// ground-truth labels (falsely shared / truly shared / private by
	// construction) survive the build and can be scored against the
	// detector (see internal/forensics).
	Build func(a *Arena, v Variant, s Scale) []cpu.ThreadFunc

	// BuildR, when set, replaces Build for workloads that declare §VII
	// reduction regions alongside their threads.
	BuildR func(a *Arena, v Variant, s Scale) ([]cpu.ThreadFunc, []coherence.AddrRange)

	// BuildN, when set, marks a machine-scalable workload: it builds one
	// thread per core for any requested core count (big-machine configs;
	// see BuildLabeled). Build remains the fixed default-machine shape.
	BuildN func(a *Arena, v Variant, s Scale, threads int) []cpu.ThreadFunc
}

// registry holds all benchmark models keyed by code.
var registry = map[string]*Spec{}

func register(s *Spec) {
	if _, dup := registry[s.Name]; dup {
		panic("workload: duplicate benchmark " + s.Name)
	}
	if s.Build == nil && s.BuildN != nil {
		s.Build = func(a *Arena, v Variant, sc Scale) []cpu.ThreadFunc {
			return s.BuildN(a, v, sc, s.Threads)
		}
	}
	if s.Build == nil && s.BuildR != nil {
		s.Build = func(a *Arena, v Variant, sc Scale) []cpu.ThreadFunc {
			ths, _ := s.BuildR(a, v, sc)
			return ths
		}
	}
	registry[s.Name] = s
}

// BuildLabeled builds threads, reduction regions and the construction-time
// ground-truth labels for an n-core machine (n == 0 keeps the calibrated
// default shape). Scalable workloads (BuildN) populate every core;
// fixed-shape workloads keep their calibrated thread count and leave the
// remaining cores idle.
func (s *Spec) BuildLabeled(v Variant, sc Scale, n int) ([]cpu.ThreadFunc, []coherence.AddrRange, *forensics.GroundTruth) {
	a := NewArena()
	if s.BuildN != nil && n > 0 {
		return s.BuildN(a, v, sc, n), nil, a.GroundTruth()
	}
	if s.BuildR != nil {
		ths, regions := s.BuildR(a, v, sc)
		return ths, regions, a.GroundTruth()
	}
	return s.Build(a, v, sc), nil, a.GroundTruth()
}

// ByName returns the benchmark model with the given code.
func ByName(name string) (*Spec, error) {
	s, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown benchmark %q", name)
	}
	return s, nil
}

// Names returns all benchmark codes, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// FalseSharingSet returns the codes of the benchmarks with false sharing,
// in the paper's figure order.
func FalseSharingSet() []string {
	return []string{"BS", "LL", "LR", "LT", "RC", "SC", "SF", "SM"}
}

// NoFalseSharingSet returns the codes of the PARSEC benchmarks without false
// sharing, in the paper's figure order.
func NoFalseSharingSet() []string {
	return []string{"BL", "BO", "CA", "FA", "FL", "SW"}
}

// HuronSet returns the Fig. 17 comparison set.
func HuronSet() []string {
	return []string{"BS", "LL", "LR", "LT", "RC", "SM"}
}

// ---------------------------------------------------------------------------
// Address-space layout helpers
// ---------------------------------------------------------------------------

const lineSize = 64

// Arena hands out non-overlapping simulated addresses and records the
// construction-time sharing label of every line it allocates (the ground
// truth the forensics layer scores the detector against). Each workload run
// uses a fresh simulation, so all workloads share the same base address.
//
// Labels are implicit by allocator shape — Alloc/AllocLine/privateRegion
// lines are private, packed Array lines whose bytes belong to two or more
// elements are falsely shared, Barrier lines are truly shared — and builders
// override with Mark where they know better (lock pools, read-shared
// tables, reduction words).
type Arena struct {
	next memsys.Addr
	gt   *forensics.GroundTruth
}

// NewArena starts allocating at a fixed base (distinct from zero so address
// arithmetic bugs are visible).
func NewArena() *Arena {
	return &Arena{next: 0x100000, gt: forensics.NewGroundTruth(lineSize)}
}

// GroundTruth returns the labels accumulated by this arena's allocations.
func (a *Arena) GroundTruth() *forensics.GroundTruth { return a.gt }

// Mark relabels every line overlapping [addr, addr+size), replacing the
// allocation-time label (builders call it for structures whose sharing the
// allocator shape cannot see: lock pools, read-shared tables, ...).
func (a *Arena) Mark(addr memsys.Addr, size int, l forensics.Label) {
	a.gt.Mark(addr, size, l)
}

// Alloc returns size bytes aligned to align (a power of two). The lines are
// labeled private until Marked otherwise.
func (a *Arena) Alloc(size, align int) memsys.Addr {
	mask := memsys.Addr(align - 1)
	a.next = (a.next + mask) &^ mask
	p := a.next
	a.next += memsys.Addr(size)
	a.gt.Mark(p, size, forensics.LabelPrivate)
	return p
}

// AllocLine returns a fresh, exclusively owned cache line.
func (a *Arena) AllocLine() memsys.Addr {
	return a.Alloc(lineSize, lineSize)
}

// Array allocates count elements of elemSize bytes with the given stride
// (stride >= elemSize). stride == elemSize packs elements contiguously (the
// falsely-shared layout); stride == lineSize pads one element per line (the
// manually fixed layout).
//
// Ground truth: a line holding bytes of two or more elements is falsely
// shared by construction (workload elements belong to different threads); a
// line covered by at most one element stays private. The per-line rule
// matters — a packed array can end on a line owned by a single element (LR's
// third accumulator line), which padding would not change.
func (a *Arena) Array(count, elemSize, stride int) []memsys.Addr {
	if stride < elemSize {
		panic("workload: stride smaller than element")
	}
	base := a.Alloc(count*stride, lineSize)
	out := make([]memsys.Addr, count)
	for i := range out {
		out[i] = base + memsys.Addr(i*stride)
	}
	elems := make(map[memsys.Addr]int) // line -> #elements overlapping it
	for i := 0; i < count; i++ {
		first := out[i].BlockAlign(lineSize)
		last := (out[i] + memsys.Addr(elemSize) - 1).BlockAlign(lineSize)
		for ln := first; ln <= last; ln += lineSize {
			elems[ln]++
		}
	}
	for ln, n := range elems {
		if n >= 2 {
			a.gt.Mark(ln, lineSize, forensics.LabelFalse)
		}
	}
	return out
}

// Barrier allocates a sense-reversing barrier for n threads. Barrier lines
// are truly shared by construction.
func (a *Arena) Barrier(n int) *cpu.Barrier {
	line := a.AllocLine()
	a.gt.Mark(line, lineSize, forensics.LabelShared)
	return &cpu.Barrier{CountAddr: line, SenseAddr: line + 8, Threads: n}
}

// strideFor picks the element stride for a layout variant: packed for the
// default layout, one-per-line when fixed.
func strideFor(v Variant, elemSize int, fixed bool) int {
	if fixed && v != VariantDefault {
		return lineSize
	}
	return elemSize
}

// privateRegion allocates a per-thread streaming region of blocks lines.
func (a *Arena) privateRegion(blocks int) memsys.Addr {
	return a.Alloc(blocks*lineSize, lineSize)
}

// streamTouch walks one line of a private region (one load + one store),
// giving workloads a realistic private-traffic component.
func streamTouch(c *cpu.Ctx, base memsys.Addr, line, totalLines int) {
	a := base + memsys.Addr((line%totalLines)*lineSize)
	v := c.Load(a, 8)
	c.Store(a+8, 8, v+1)
}
