#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/hash.hpp"
#include "pauli/pauli.hpp"
#include "phoenix/compiler.hpp"

namespace phoenix {

/// Canonical 128-bit content address of a compile request, the key of the
/// compile cache and the single-flight table.
///
/// Two requests share a fingerprint when they ask for the same Trotter step
/// under the same output-relevant options: the same operator sum, however
/// its terms are ordered, split or zero-padded. That does NOT make their
/// compiles identical: phoenix_compile follows the term order (reversing
/// NH_frz_BK's terms takes its 2Q count from 1226 to 1260, LiH_frz_JW's from
/// 398 to 394). The cache answers every request of a fingerprint with the
/// first arrival's compile, which is a valid compilation of the same Trotter
/// step: a step's arrangement is free (see phoenix_compile's contract).
/// Concretely the hash covers:
///
///  * a fingerprint schema version (bump kFingerprintSchemaVersion whenever
///    the hashed fields or the normalization below change, so stale disk
///    caches miss instead of colliding);
///  * the register size and the NORMALIZED term list: duplicate Pauli
///    strings merged, exactly-zero coefficients dropped, then sorted by
///    symplectic content (pauli_string_less) — so permutations, duplicate
///    splits, and zero padding of the same Hamiltonian all address one cache
///    entry. The merge sums a string's coefficients in request order, as
///    canonicalize_terms (hamlib/io.hpp) does, and is computed over a stable
///    sort of term indices, without copying the terms;
///  * every semantically relevant PhoenixOptions field: ISA, peephole level,
///    hardware-awareness, Tetris lookahead, all SabreOptions fields
///    (including the seed), SimplifyOptions, and all ValidationOptions
///    fields (validation populates the result's diagnostics/report);
///  * in hardware-aware mode, the coupling graph's vertex count and sorted
///    edge set (graphs with equal edge sets fingerprint identically however
///    their edges were inserted).
///
/// Deliberately EXCLUDED, because the compiler guarantees bit-identical
/// output regardless: `num_threads` (per-group simplify is deterministic for
/// any thread count) and `trace` (probes never change the compiled circuit;
/// the trace `stats` member is not part of the cached artifact either, see
/// src/phoenix/serialize.hpp). `simplify.search` joins that excluded set:
/// Frontier and Rescan choose bit-identically by contract. The multi-start
/// race and beam knobs (`simplify.num_starts`, `simplify.beam_width`) are
/// hashed — they legitimately change the compiled circuit (v3 added them).
/// `resynth` joined the hashed set in v4: the O4 tier rewrites the compiled
/// circuit, so Off/Logical/Routed requests must address distinct entries.
inline constexpr std::uint64_t kFingerprintSchemaVersion = 4;

/// Fingerprint a request against `coupling` (pass nullptr for logical-level
/// compilation; `opt.coupling` is ignored in favor of the argument so
/// callers owning the graph through a shared_ptr can fingerprint without
/// patching options).
Digest128 fingerprint_request(const std::vector<PauliTerm>& terms,
                              std::size_t num_qubits,
                              const PhoenixOptions& opt,
                              const Graph* coupling);

/// Absorb every PhoenixOptions field that can change the compiled artifact,
/// plus the coupling graph of a hardware-aware compile (vertex count and
/// sorted edge set), into `h`: the one options hash of both request digests,
/// so an option added here reaches the cache key and the structure key
/// alike. Fields that only affect execution (num_threads, trace, cancel
/// tokens, request deadlines) are deliberately absent: a deadline changes
/// whether a compile finishes, never what it produces, and hashing a token
/// would split the cache for identical programs. Throws Error
/// (Stage::Service) for a hardware-aware request without a coupling graph.
void hash_options(Hash128& h, const PhoenixOptions& opt,
                  const Graph* coupling);

/// Key of a request's compiled skeleton (src/phoenix/bind.hpp): the register
/// size, the Pauli strings in request order and the options, hashed by the
/// same helper as fingerprint_request, but no coefficients. Unlike the
/// fingerprint it is order-sensitive, because a skeleton's slots follow the
/// term order of the compile that built it: a bound request must equal
/// phoenix_compile of that very request. Two requests share a structure
/// digest iff they differ at most in their coefficients.
Digest128 structure_digest(const std::vector<PauliTerm>& terms,
                           std::size_t num_qubits, const PhoenixOptions& opt,
                           const Graph* coupling);

/// Convenience overload using `opt.coupling` when hardware-aware.
inline Digest128 fingerprint_request(const std::vector<PauliTerm>& terms,
                                     std::size_t num_qubits,
                                     const PhoenixOptions& opt) {
  return fingerprint_request(terms, num_qubits, opt, opt.coupling);
}

}  // namespace phoenix
