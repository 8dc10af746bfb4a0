package engine

import (
	"strconv"

	"dixq/internal/interval"
)

// This file preserves the pre-flat ("legacy") implementations of every
// operator that constructs new keys: each derived endpoint is an
// individually allocated Key, exactly as the engine worked before the
// shared fixed-stride buffer existed. They are byte-for-byte reference
// implementations for the differential property test
// TestFlatOpsMatchLegacyOps: flat and legacy layouts must produce
// identical relations.
// Operators that only select or share existing tuples (Roots, SemiJoin,
// Distinct, ...) build no keys and need no legacy twin.

// EmbedOuterLegacy is EmbedOuter with per-key allocations.
func EmbedOuterLegacy(newIndex Index, oldDepth, newDepth int, rel *interval.Relation, budget *Budget) (*interval.Relation, error) {
	out := &interval.Relation{}
	pos := 0
	var group []interval.Tuple
	var groupEnv interval.Key
	haveGroup := false
	for _, env := range newIndex {
		if !haveGroup || groupEnv.ComparePrefix(env, oldDepth) != 0 {
			for pos < len(rel.Tuples) && prefixCmp(rel.Tuples[pos].L, env, oldDepth) < 0 {
				pos++
			}
			start := pos
			for pos < len(rel.Tuples) && prefixCmp(rel.Tuples[pos].L, env, oldDepth) == 0 {
				pos++
			}
			group = rel.Tuples[start:pos]
			groupEnv = env
			haveGroup = true
		}
		if !budget.charge(int64(len(group))) {
			return nil, ErrBudgetExceeded
		}
		base := env.Extend(newDepth)
		for _, t := range group {
			out.Tuples = append(out.Tuples, interval.Tuple{
				S: t.S,
				L: base.Append(t.L.Suffix(oldDepth)...),
				R: base.Append(t.R.Suffix(oldDepth)...),
			})
		}
	}
	return out, nil
}

// BindVarLegacy is BindVar with per-key allocations.
func BindVarLegacy(domain, domainRoots *interval.Relation, depth, newDepth int) *interval.Relation {
	out := &interval.Relation{Tuples: make([]interval.Tuple, 0, len(domain.Tuples))}
	pos := 0
	for _, r := range domainRoots.Tuples {
		base := r.L.Extend(newDepth)
		for pos < len(domain.Tuples) && interval.Compare(domain.Tuples[pos].L, r.L) < 0 {
			pos++
		}
		for pos < len(domain.Tuples) && interval.Compare(domain.Tuples[pos].L, r.R) < 0 {
			t := domain.Tuples[pos]
			out.Tuples = append(out.Tuples, interval.Tuple{
				S: t.S,
				L: base.Append(t.L.Suffix(depth)...),
				R: base.Append(t.R.Suffix(depth)...),
			})
			pos++
		}
	}
	return out
}

// PositionsLegacy is Positions with per-key allocations.
func PositionsLegacy(domainRoots *interval.Relation, oldDepth, newDepth int) *interval.Relation {
	out := &interval.Relation{Tuples: make([]interval.Tuple, 0, len(domainRoots.Tuples))}
	n := 0
	var prev interval.Key
	for i, r := range domainRoots.Tuples {
		if i == 0 || r.L.ComparePrefix(prev, oldDepth) != 0 {
			n = 0
		}
		n++
		prev = r.L
		base := r.L.Extend(newDepth)
		out.Tuples = append(out.Tuples, interval.Tuple{
			S: strconv.Itoa(n),
			L: base.Append(0),
			R: base.Append(1),
		})
	}
	return out
}

// prefixKey returns the first depth digits of a key as a fresh key,
// padding with zeros when the key is physically shorter.
func prefixKey(k interval.Key, depth int) interval.Key {
	out := make(interval.Key, depth)
	for i := range out {
		out[i] = k.Digit(i)
	}
	return out
}

// shiftFirstLocal adds delta to the digit at position depth (the first
// local digit), materializing implicit zeros as needed.
func shiftFirstLocal(k interval.Key, depth int, delta int64) interval.Key {
	n := len(k)
	if n < depth+1 {
		n = depth + 1
	}
	out := make(interval.Key, n)
	copy(out, k)
	out[depth] += delta
	return out
}

// emitTreeLegacy appends one top-level tree with a fresh position digit
// inserted between the environment prefix and the original local part.
func emitTreeLegacy(out *interval.Relation, prefix interval.Key, depth int, pos int64, tree []interval.Tuple) {
	base := prefixKey(prefix, depth).Append(pos)
	for _, t := range tree {
		out.Tuples = append(out.Tuples, interval.Tuple{
			S: t.S,
			L: base.Append(t.L.Suffix(depth)...),
			R: base.Append(t.R.Suffix(depth)...),
		})
	}
}

// ReverseLegacy is Reverse with per-key allocations.
func ReverseLegacy(rel *interval.Relation, depth int) *interval.Relation {
	out := &interval.Relation{}
	forEachGroup(rel.Tuples, depth, func(g []interval.Tuple) {
		ranges := treeRanges(g)
		prefix := g[0].L
		for j := len(ranges) - 1; j >= 0; j-- {
			emitTreeLegacy(out, prefix, depth, int64(len(ranges)-1-j), g[ranges[j][0]:ranges[j][1]])
		}
	})
	return out
}

// SortTreesLegacy is SortTrees with per-key allocations (serial sort).
func SortTreesLegacy(rel *interval.Relation, depth int) *interval.Relation {
	out := &interval.Relation{}
	forEachGroup(rel.Tuples, depth, func(g []interval.Tuple) {
		ranges := treeRanges(g)
		order := stableSortRanges(g, ranges, 1)
		prefix := g[0].L
		for j, idx := range order {
			emitTreeLegacy(out, prefix, depth, int64(j), g[ranges[idx][0]:ranges[idx][1]])
		}
	})
	return out
}

// SubtreesDFSLegacy is SubtreesDFS with per-key allocations.
func SubtreesDFSLegacy(rel *interval.Relation, depth int) *interval.Relation {
	out := &interval.Relation{}
	forEachGroup(rel.Tuples, depth, func(g []interval.Tuple) {
		prefix := g[0].L
		for i, t := range g {
			end := i + 1
			for end < len(g) && interval.Compare(g[end].L, t.R) < 0 {
				end++
			}
			emitTreeLegacy(out, prefix, depth, int64(i), g[i:end])
		}
	})
	return out
}

// ConstructLegacy is Construct with per-key allocations.
func ConstructLegacy(index Index, depth int, label string, rel *interval.Relation) *interval.Relation {
	out := &interval.Relation{}
	forEachEnv(index, depth, rel.Tuples, func(env interval.Key, g []interval.Tuple) {
		base := env.Extend(depth)
		rootAt := len(out.Tuples)
		out.Tuples = append(out.Tuples, interval.Tuple{S: label, L: base.Append(0)})
		var maxFirst int64
		for _, t := range g {
			out.Tuples = append(out.Tuples, interval.Tuple{
				S: t.S,
				L: shiftFirstLocal(t.L, depth, 1),
				R: shiftFirstLocal(t.R, depth, 1),
			})
			if d := t.R.Digit(depth) + 1; d > maxFirst {
				maxFirst = d
			}
		}
		out.Tuples[rootAt].R = base.Append(maxFirst + 1)
	})
	return out
}

// ConcatLegacy is Concat with per-key allocations.
func ConcatLegacy(index Index, depth int, a, b *interval.Relation) *interval.Relation {
	out := &interval.Relation{}
	posB := 0
	forEachEnv(index, depth, a.Tuples, func(env interval.Key, ga []interval.Tuple) {
		var shift int64
		for _, t := range ga {
			out.Tuples = append(out.Tuples, t)
			if d := t.R.Digit(depth) + 1; d > shift {
				shift = d
			}
		}
		for posB < len(b.Tuples) && prefixCmp(b.Tuples[posB].L, env, depth) < 0 {
			posB++
		}
		for posB < len(b.Tuples) && prefixCmp(b.Tuples[posB].L, env, depth) == 0 {
			t := b.Tuples[posB]
			if shift == 0 {
				out.Tuples = append(out.Tuples, t)
			} else {
				out.Tuples = append(out.Tuples, interval.Tuple{
					S: t.S,
					L: shiftFirstLocal(t.L, depth, shift),
					R: shiftFirstLocal(t.R, depth, shift),
				})
			}
			posB++
		}
	})
	return out
}

// CountLegacy is Count with per-key allocations.
func CountLegacy(index Index, depth int, rel *interval.Relation) *interval.Relation {
	out := &interval.Relation{}
	forEachEnv(index, depth, rel.Tuples, func(env interval.Key, g []interval.Tuple) {
		n := 0
		var max interval.Key
		haveMax := false
		for _, t := range g {
			if !haveMax || interval.Compare(t.L, max) > 0 {
				max = t.R
				haveMax = true
				n++
			}
		}
		base := env.Extend(depth)
		out.Tuples = append(out.Tuples, interval.Tuple{
			S: strconv.Itoa(n),
			L: base.Append(0),
			R: base.Append(1),
		})
	})
	return out
}
