#include "service/fingerprint.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "hamlib/io.hpp"

namespace phoenix {

namespace {

/// Hash seed of structure_digest, distinct from every fingerprint schema
/// version, so the two keys never coincide.
constexpr std::uint64_t kStructureDigestSeed = 0x7374727563740001ull;

/// Every PhoenixOptions field that can change the compiled artifact, plus
/// the coupling graph of a hardware-aware compile: the one options hash of
/// both request digests, so an option added here reaches the cache key and
/// the structure key alike. Fields that only affect execution (num_threads,
/// trace, cancel tokens, request deadlines) are deliberately absent: a
/// deadline changes whether a compile finishes, never what it produces, and
/// hashing a token would split the cache for identical programs.
void hash_options(Hash128& h, const PhoenixOptions& opt,
                  const Graph* coupling) {
  h.write_u64(static_cast<std::uint64_t>(opt.isa));
  h.write_u64(static_cast<std::uint64_t>(opt.peephole));
  h.write_u64(static_cast<std::uint64_t>(opt.peephole_engine));
  h.write_u64(static_cast<std::uint64_t>(opt.resynth));
  h.write_bool(opt.hardware_aware);
  h.write_size(opt.lookahead);
  h.write_size(opt.sabre.extended_set_size);
  h.write_double(opt.sabre.extended_set_weight);
  h.write_double(opt.sabre.decay_delta);
  h.write_size(opt.sabre.decay_reset);
  h.write_size(opt.sabre.layout_rounds);
  h.write_u64(opt.sabre.seed);
  h.write_size(opt.simplify.max_epochs);
  // simplify.search is deliberately NOT hashed: Frontier and Rescan choose
  // bit-identically by contract (cross-checked under expensive checks), so
  // hashing it would split the cache for identical artifacts — same
  // rationale as num_threads. The race/beam knobs DO change the output.
  h.write_size(opt.simplify.num_starts);
  h.write_size(opt.simplify.beam_width);
  h.write_u64(static_cast<std::uint64_t>(opt.validation.level));
  h.write_size(opt.validation.exact_max_qubits);
  h.write_double(opt.validation.angle_tol);
  h.write_double(opt.validation.max_infidelity);

  if (opt.hardware_aware) {
    if (coupling == nullptr)
      throw Error(Stage::Service,
                  "fingerprint_request: hardware-aware request without a "
                  "coupling graph");
    h.write_size(coupling->num_vertices());
    std::vector<std::pair<std::size_t, std::size_t>> edges = coupling->edges();
    for (auto& [a, b] : edges)
      if (a > b) std::swap(a, b);
    std::sort(edges.begin(), edges.end());
    h.write_size(edges.size());
    for (const auto& [a, b] : edges) {
      h.write_size(a);
      h.write_size(b);
    }
  }
}

}  // namespace

Digest128 fingerprint_request(const std::vector<PauliTerm>& terms,
                              std::size_t num_qubits,
                              const PhoenixOptions& opt,
                              const Graph* coupling) {
  Hash128 h(kFingerprintSchemaVersion);
  h.write_size(num_qubits);

  // Normalize: merge duplicates / drop exact zeros (canonicalize_terms),
  // then sort by symplectic content so the hash is permutation-invariant.
  std::vector<PauliTerm> canon = terms;
  canonicalize_terms(canon);
  std::sort(canon.begin(), canon.end(),
            [](const PauliTerm& a, const PauliTerm& b) {
              return pauli_string_less(a.string, b.string);
            });
  h.write_size(canon.size());
  for (const PauliTerm& t : canon) {
    t.string.hash_into(h);
    h.write_double(t.coeff);
  }

  hash_options(h, opt, coupling);
  return h.digest();
}

Digest128 structure_digest(const std::vector<PauliTerm>& terms,
                           std::size_t num_qubits, const PhoenixOptions& opt,
                           const Graph* coupling) {
  Hash128 h(kStructureDigestSeed);
  h.write_size(num_qubits);
  h.write_size(terms.size());
  for (const PauliTerm& t : terms) t.string.hash_into(h);
  hash_options(h, opt, coupling);
  return h.digest();
}

}  // namespace phoenix
