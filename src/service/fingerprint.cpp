#include "service/fingerprint.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/error.hpp"

namespace phoenix {

namespace {

/// Hash seed of structure_digest, distinct from every fingerprint schema
/// version, so the two keys never coincide.
constexpr std::uint64_t kStructureDigestSeed = 0x7374727563740001ull;

}  // namespace

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

Digest128 fingerprint_request(const std::vector<PauliTerm>& terms,
                              std::size_t num_qubits,
                              const PhoenixOptions& opt,
                              const Graph* coupling) {
  Hash128 h(kFingerprintSchemaVersion);
  h.write_size(num_qubits);

  // Normalize without copying a term: stable-sort term indices by symplectic
  // content, so the copies of a string sit together in request order. Each
  // run sums its coefficients in that order, the order canonicalize_terms
  // adds them in, so the merged coefficients are bit-identical to it; sums
  // equal to 0.0 (-0.0 included) drop out. The sort makes the hash
  // permutation-invariant.
  std::vector<std::size_t> order(terms.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return pauli_string_less(terms[a].string,
                                              terms[b].string);
                   });
  std::vector<std::pair<std::size_t, double>> merged;  // (index, sum)
  merged.reserve(order.size());
  for (std::size_t i = 0; i < order.size();) {
    const PauliString& s = terms[order[i]].string;
    double sum = terms[order[i]].coeff;
    std::size_t j = i + 1;
    for (; j < order.size() && terms[order[j]].string == s; ++j)
      sum += terms[order[j]].coeff;
    if (sum != 0.0) merged.emplace_back(order[i], sum);
    i = j;
  }
  h.write_size(merged.size());
  for (const auto& [i, coeff] : merged) {
    terms[i].string.hash_into(h);
    h.write_double(coeff);
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
