#pragma once

// Stage-by-stage in-process replay of one Submit payload, timing the calls
// into each module's public entry points in the order phoenix_compile and
// the server run them: request decode, fingerprint, group_by_support,
// per-group simplify_bsf/emit/profile_subcircuit on the shared pool,
// tetris_order, optimize_o2/o3, resynthesize_clifford_regions, sabre_route +
// decompose_swaps or route_commuting_two_local, validate_translation and
// compile_result_to_bytes.
//
// The replay is a copy of phoenix_compile's stage order, so it goes stale
// when the compiler's stages change; the caller compares its circuit with
// phoenix_compile's and reports a mismatch as a stale layer table. It is to
// be deleted once the program records its own request-scoped spans.

#include <cstddef>
#include <cstdint>
#include <string>

#include "circuit/circuit.hpp"
#include "spans.hpp"

namespace wirebench {

struct ReplayCounts {
  phoenix::Circuit circuit;  ///< final circuit, for the staleness check
  std::size_t groups = 0;
  std::size_t simplify_epochs = 0;
  std::size_t gates_removed = 0;  ///< by every peephole call
  std::size_t resynth_regions = 0;
  std::size_t resynth_accepted = 0;
  std::size_t swaps = 0;
};

/// Replay `payload` under a root span named "replay" with `request` as its
/// request id.
ReplayCounts replay_request(const std::string& payload, Spans& spans,
                            std::uint64_t request);

}  // namespace wirebench
