#pragma once
/// \file block_cyclic.hpp
/// Exact data-movement accounting for 1-D block-cyclic redistribution.
///
/// The paper estimates inter-task redistribution volumes with the fast
/// runtime block-cyclic redistribution algorithm of Prylli & Tourancheau
/// (ref [13]) under a block-cyclic distribution of every task's data. We
/// implement the same element-mapping arithmetic: block i of an array lives
/// on src[i mod s] in the producer layout and on dst[i mod d] in the
/// consumer layout; only blocks whose physical owner changes must cross the
/// network. Data resident on processors shared by both groups stays local —
/// this is the locality the LoCBS scheduler exploits.

#include <vector>

#include "cluster/processor_set.hpp"

namespace locmps {

/// Fraction (in [0, 1]) of a block-cyclically distributed array that must
/// move when redistributing from the ordered processor list \p src to the
/// ordered list \p dst. Exact for equal block sizes (the common case, and
/// the one ref [13] optimizes); O(|src| + |dst|) time.
///
/// Both lists must be non-empty, duplicate-free and sorted ascending (the
/// canonical layout order used throughout the library).
double remote_fraction(const std::vector<ProcId>& src,
                       const std::vector<ProcId>& dst);

/// Bytes of \p volume_bytes that must cross the network when moving from
/// layout \p src to layout \p dst (processor sets in canonical ascending
/// order). Zero when the sets are identical.
double remote_volume(double volume_bytes, const ProcessorSet& src,
                     const ProcessorSet& dst);

}  // namespace locmps
