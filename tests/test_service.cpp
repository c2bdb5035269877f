// Compile-service tests: request fingerprinting (canonicalization,
// permutation invariance, option sensitivity), the CompileResult
// serialization round-trip, the sharded LRU cache (byte budget, disk
// persistence, schema rejection), single-flight deduplication under
// concurrency, priority/cancellation scheduling, and the thread-pool
// reentrancy edges the service exposed.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "hamlib/io.hpp"
#include "hamlib/uccsd.hpp"
#include "mapping/topology.hpp"
#include "phoenix/serialize.hpp"
#include "service/cache.hpp"
#include "service/fingerprint.hpp"
#include "service/service.hpp"

namespace phoenix {
namespace {

std::vector<PauliTerm> small_terms() {
  return {{"XXII", 0.5}, {"IYYI", -0.25}, {"IIZZ", 0.125}, {"ZIIZ", 1.0}};
}

const UccsdBenchmark& lih_bk() {
  static const UccsdBenchmark b =
      generate_uccsd(Molecule::lih(), true, FermionEncoding::BravyiKitaev);
  return b;
}

/// Gate-by-gate exact comparison (angles compared by bit pattern, Su4
/// constituents recursed) — "bit-identical" in the acceptance sense.
void expect_gates_identical(const Gate& a, const Gate& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.q0, b.q0);
  EXPECT_EQ(a.q1, b.q1);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.param),
            std::bit_cast<std::uint64_t>(b.param));
  ASSERT_EQ(a.sub.size(), b.sub.size());
  for (std::size_t i = 0; i < a.sub.size(); ++i)
    expect_gates_identical(a.sub[i], b.sub[i]);
}

void expect_circuits_identical(const Circuit& a, const Circuit& b) {
  EXPECT_EQ(a.num_qubits(), b.num_qubits());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    expect_gates_identical(a.gate(i), b.gate(i));
}

/// A scratch directory under the system temp dir, removed on destruction.
struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const char* tag) {
    path = std::filesystem::temp_directory_path() /
           (std::string("phoenix_") + tag + "_" +
            std::to_string(::getpid()) + "_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

// --- canonicalization -------------------------------------------------------

TEST(Canonicalize, MergesDuplicatesPreservingFirstPosition) {
  std::vector<PauliTerm> terms = {
      {"XX", 0.5}, {"ZZ", 1.0}, {"XX", 0.25}, {"YY", -1.0}, {"ZZ", -0.5}};
  const std::size_t removed = canonicalize_terms(terms);
  EXPECT_EQ(removed, 2u);
  ASSERT_EQ(terms.size(), 3u);
  EXPECT_EQ(terms[0].string.to_string(), "XX");
  EXPECT_DOUBLE_EQ(terms[0].coeff, 0.75);
  EXPECT_EQ(terms[1].string.to_string(), "ZZ");
  EXPECT_DOUBLE_EQ(terms[1].coeff, 0.5);
  EXPECT_EQ(terms[2].string.to_string(), "YY");
}

TEST(Canonicalize, DropsExactZerosIncludingCancellingMerges) {
  std::vector<PauliTerm> terms = {
      {"XX", 0.5}, {"YY", 0.0}, {"XX", -0.5}, {"ZZ", 2.0}};
  const std::size_t removed = canonicalize_terms(terms);
  EXPECT_EQ(removed, 3u);
  ASSERT_EQ(terms.size(), 1u);
  EXPECT_EQ(terms[0].string.to_string(), "ZZ");
}

TEST(Canonicalize, KeepsTinyNonzeroCoefficients) {
  std::vector<PauliTerm> terms = {{"XX", 1e-300}};
  EXPECT_EQ(canonicalize_terms(terms), 0u);
  EXPECT_EQ(terms.size(), 1u);
}

TEST(Canonicalize, AppliedByHamiltonianFromText) {
  const auto terms =
      hamiltonian_from_text("XX 0.5\nZZ 0\nXX 0.25\nYY 1.0\n");
  ASSERT_EQ(terms.size(), 2u);
  EXPECT_EQ(terms[0].string.to_string(), "XX");
  EXPECT_DOUBLE_EQ(terms[0].coeff, 0.75);
  EXPECT_EQ(terms[1].string.to_string(), "YY");
}

// --- fingerprinting ---------------------------------------------------------

TEST(Fingerprint, StableAndSensitiveToContent) {
  const auto terms = small_terms();
  const PhoenixOptions opt;
  const Digest128 base = fingerprint_request(terms, 4, opt);
  EXPECT_EQ(base, fingerprint_request(terms, 4, opt));

  auto scaled = terms;
  scaled[1].coeff += 1e-9;
  EXPECT_NE(base, fingerprint_request(scaled, 4, opt));

  EXPECT_NE(base, fingerprint_request(terms, 5, opt));
}

TEST(Fingerprint, PermutationAndSplitInvariant) {
  const auto terms = small_terms();
  const PhoenixOptions opt;
  const Digest128 base = fingerprint_request(terms, 4, opt);

  auto permuted = terms;
  std::swap(permuted[0], permuted[3]);
  std::swap(permuted[1], permuted[2]);
  EXPECT_EQ(base, fingerprint_request(permuted, 4, opt));

  // Split one coefficient across duplicate strings and pad with an exact
  // zero: still the same canonical Hamiltonian.
  std::vector<PauliTerm> split = {{"XXII", 0.25}, {"IYYI", -0.25},
                                  {"IIZZ", 0.125}, {"XXII", 0.25},
                                  {"ZIIZ", 1.0},  {"YYYY", 0.0}};
  EXPECT_EQ(base, fingerprint_request(split, 4, opt));
}

TEST(Fingerprint, SemanticOptionsChangeDigest) {
  const auto terms = small_terms();
  PhoenixOptions opt;
  const Digest128 base = fingerprint_request(terms, 4, opt);

  PhoenixOptions isa = opt;
  isa.isa = TwoQubitIsa::Su4;
  EXPECT_NE(base, fingerprint_request(terms, 4, isa));

  PhoenixOptions peep = opt;
  peep.peephole = PeepholeLevel::O3;
  EXPECT_NE(base, fingerprint_request(terms, 4, peep));

  PhoenixOptions look = opt;
  look.lookahead = 7;
  EXPECT_NE(base, fingerprint_request(terms, 4, look));

  PhoenixOptions val = opt;
  val.validation.level = ValidationLevel::Cheap;
  EXPECT_NE(base, fingerprint_request(terms, 4, val));

  PhoenixOptions starts = opt;
  starts.simplify.num_starts = 4;
  EXPECT_NE(base, fingerprint_request(terms, 4, starts));

  PhoenixOptions beam = opt;
  beam.simplify.beam_width = 3;
  EXPECT_NE(base, fingerprint_request(terms, 4, beam));
}

TEST(Fingerprint, OutputInvariantOptionsDoNotChangeDigest) {
  const auto terms = small_terms();
  PhoenixOptions opt;
  const Digest128 base = fingerprint_request(terms, 4, opt);

  PhoenixOptions threads = opt;
  threads.num_threads = 4;
  EXPECT_EQ(base, fingerprint_request(terms, 4, threads));

  PhoenixOptions traced = opt;
  traced.trace = true;
  EXPECT_EQ(base, fingerprint_request(terms, 4, traced));

  // Frontier and Rescan choose bit-identically by contract, so the search
  // strategy must not split the cache.
  PhoenixOptions rescan = opt;
  rescan.simplify.search = SimplifySearch::Rescan;
  EXPECT_EQ(base, fingerprint_request(terms, 4, rescan));
}

TEST(Fingerprint, CouplingEdgeSetMatters) {
  const auto terms = small_terms();
  PhoenixOptions opt;
  opt.hardware_aware = true;

  Graph line(4);
  line.add_edge(0, 1);
  line.add_edge(1, 2);
  line.add_edge(2, 3);
  const Digest128 base = fingerprint_request(terms, 4, opt, &line);

  // Same edge set, different insertion order and endpoint order.
  Graph shuffled(4);
  shuffled.add_edge(3, 2);
  shuffled.add_edge(1, 0);
  shuffled.add_edge(2, 1);
  EXPECT_EQ(base, fingerprint_request(terms, 4, opt, &shuffled));

  Graph ring = line;
  ring.add_edge(3, 0);
  EXPECT_NE(base, fingerprint_request(terms, 4, opt, &ring));

  EXPECT_THROW(fingerprint_request(terms, 4, opt, nullptr), Error);
}

// Both digests hash the options through one helper, so every hashed option,
// the coupling graph included, must move both keys.
TEST(Fingerprint, EveryHashedOptionChangesBothDigests) {
  const auto terms = small_terms();
  Graph line(4);
  line.add_edge(0, 1);
  line.add_edge(1, 2);
  line.add_edge(2, 3);
  Graph ring = line;
  ring.add_edge(3, 0);
  PhoenixOptions aware;
  aware.hardware_aware = true;

  struct Variant {
    const char* name;
    PhoenixOptions base;
    const Graph* base_coupling;
    PhoenixOptions changed;
    const Graph* coupling;
  };
  std::vector<Variant> variants;
  auto option = [&](const char* name, auto mutate) {
    PhoenixOptions changed;
    mutate(changed);
    variants.push_back({name, PhoenixOptions{}, nullptr, changed, nullptr});
  };
  option("isa", [](PhoenixOptions& o) { o.isa = TwoQubitIsa::Su4; });
  option("peephole", [](PhoenixOptions& o) { o.peephole = PeepholeLevel::O3; });
  option("peephole_engine",
         [](PhoenixOptions& o) { o.peephole_engine = PeepholeEngine::Legacy; });
  option("resynth",
         [](PhoenixOptions& o) { o.resynth = ResynthLevel::Logical; });
  option("lookahead", [](PhoenixOptions& o) { o.lookahead = 7; });
  option("sabre.extended_set_size",
         [](PhoenixOptions& o) { o.sabre.extended_set_size += 1; });
  option("sabre.extended_set_weight",
         [](PhoenixOptions& o) { o.sabre.extended_set_weight += 0.25; });
  option("sabre.decay_delta",
         [](PhoenixOptions& o) { o.sabre.decay_delta += 0.25; });
  option("sabre.decay_reset",
         [](PhoenixOptions& o) { o.sabre.decay_reset += 1; });
  option("sabre.layout_rounds",
         [](PhoenixOptions& o) { o.sabre.layout_rounds += 1; });
  option("sabre.seed", [](PhoenixOptions& o) { o.sabre.seed += 1; });
  option("simplify.max_epochs",
         [](PhoenixOptions& o) { o.simplify.max_epochs += 1; });
  option("simplify.num_starts",
         [](PhoenixOptions& o) { o.simplify.num_starts = 4; });
  option("simplify.beam_width",
         [](PhoenixOptions& o) { o.simplify.beam_width = 3; });
  option("validation.level", [](PhoenixOptions& o) {
    o.validation.level = ValidationLevel::Cheap;
  });
  option("validation.exact_max_qubits",
         [](PhoenixOptions& o) { o.validation.exact_max_qubits += 1; });
  option("validation.angle_tol",
         [](PhoenixOptions& o) { o.validation.angle_tol *= 2.0; });
  option("validation.max_infidelity",
         [](PhoenixOptions& o) { o.validation.max_infidelity *= 2.0; });
  variants.push_back(
      {"hardware_aware", PhoenixOptions{}, nullptr, aware, &line});
  variants.push_back({"coupling edge set", aware, &line, aware, &ring});

  for (const Variant& v : variants) {
    EXPECT_NE(fingerprint_request(terms, 4, v.base, v.base_coupling),
              fingerprint_request(terms, 4, v.changed, v.coupling))
        << v.name;
    EXPECT_NE(structure_digest(terms, 4, v.base, v.base_coupling),
              structure_digest(terms, 4, v.changed, v.coupling))
        << v.name;
  }
}

TEST(Fingerprint, CoefficientChangesOnlyTheFingerprint) {
  const auto terms = small_terms();
  const PhoenixOptions opt;
  auto scaled = terms;
  scaled[1].coeff += 1e-9;
  EXPECT_NE(fingerprint_request(terms, 4, opt),
            fingerprint_request(scaled, 4, opt));
  EXPECT_EQ(structure_digest(terms, 4, opt, nullptr),
            structure_digest(scaled, 4, opt, nullptr));
  EXPECT_NE(structure_digest(terms, 4, opt, nullptr),
            structure_digest(terms, 5, opt, nullptr));
}

// The fingerprint contract: term order addresses one cache entry although
// phoenix_compile follows it, so only the structure digest (the key a bound
// result must match) may see it.
TEST(Fingerprint, ReversedOrderSharesTheFingerprintNotTheStructure) {
  const UccsdBenchmark nh =
      generate_uccsd(Molecule::nh(), true, FermionEncoding::BravyiKitaev);
  auto reversed = nh.terms;
  std::reverse(reversed.begin(), reversed.end());
  const PhoenixOptions opt;
  EXPECT_EQ(fingerprint_request(nh.terms, nh.num_qubits, opt),
            fingerprint_request(reversed, nh.num_qubits, opt));
  EXPECT_NE(structure_digest(nh.terms, nh.num_qubits, opt, nullptr),
            structure_digest(reversed, nh.num_qubits, opt, nullptr));
  EXPECT_NE(phoenix_compile(nh.terms, nh.num_qubits).circuit.two_qubit_count(),
            phoenix_compile(reversed, nh.num_qubits).circuit.two_qubit_count());
}

// Schema v4 keys as first released: refactoring the hash must not move them,
// or every persisted disk cache would silently go cold.
TEST(Fingerprint, SuiteFingerprintsArePinned) {
  const std::map<std::string, std::string> pinned = {
      {"CH2_cmplt_BK", "5e036db3b2facb73d5fcdb6d5897d370"},
      {"CH2_cmplt_JW", "0a6fa3b1354f36c113b0d80ba523f749"},
      {"CH2_frz_BK", "72fca6534d314156ce5938dedc34021c"},
      {"CH2_frz_JW", "bcbc53b5eaa34d018cda9d5059736b30"},
      {"H2O_cmplt_BK", "111582dc7342540ab0c287559847857e"},
      {"H2O_cmplt_JW", "6e837144e12782b2d3155886e73e3d68"},
      {"H2O_frz_BK", "4a830053eab4b4686670982e8dd09047"},
      {"H2O_frz_JW", "49cf979bfbb11a8a68f2c84e5c89656f"},
      {"LiH_cmplt_BK", "7fa4ef69b90ea35808ca9ed25d58111e"},
      {"LiH_cmplt_JW", "18a2ecc9e1e3b8334d076742b7d077f7"},
      {"LiH_frz_BK", "7c9b02fc078dfcfc447af91336ce5664"},
      {"LiH_frz_JW", "b775b4a76cbacb030ae1f72a045b8623"},
      {"NH_cmplt_BK", "4a830053eab4b4686670982e8dd09047"},
      {"NH_cmplt_JW", "49cf979bfbb11a8a68f2c84e5c89656f"},
      {"NH_frz_BK", "aa9f50dd18eeb9cef2f99e5432e0857c"},
      {"NH_frz_JW", "1001df4cc32bc27d9fd76e3711e9257b"},
  };
  EXPECT_EQ(kFingerprintSchemaVersion, 4u);
  const auto suite = uccsd_suite();
  ASSERT_EQ(suite.size(), pinned.size());
  for (const auto& b : suite)
    EXPECT_EQ(fingerprint_request(b.terms, b.num_qubits, {}).hex(),
              pinned.at(b.name))
        << b.name;
}

/// The fingerprint as it was computed before the index sort, kept as the
/// oracle: copy the terms, canonicalize_terms (merge duplicates in request
/// order, drop exact zeros), sort by symplectic content, hash.
Digest128 reference_fingerprint(const std::vector<PauliTerm>& terms,
                                std::size_t num_qubits,
                                const PhoenixOptions& opt,
                                const Graph* coupling) {
  Hash128 h(kFingerprintSchemaVersion);
  h.write_size(num_qubits);
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

// The index-sort normalization must reproduce the reference bit for bit on
// the inputs where a merge is delicate: 2–5 copies of a string spread
// through request order, copies that cancel to exactly +0 and -0, and
// -0.0 / NaN / ±inf coefficients, on registers of 1–130 qubits, half of them
// hardware-aware with edge lists inserted in shuffled order.
TEST(Fingerprint, IndexSortMatchesTheCopyingReference) {
  std::mt19937_64 rng(0x5eed20);
  const double kNan = std::bit_cast<double>(0x7ff8000000c0ffeeull);
  const double kInf = std::numeric_limits<double>::infinity();
  std::size_t merged_runs = 0, zero_sums = 0;
  for (int trial = 0; trial < 1200; ++trial) {
    const std::size_t n = 1 + rng() % 130;
    std::vector<PauliTerm> terms;
    const std::size_t distinct = 1 + rng() % 10;
    for (std::size_t d = 0; d < distinct; ++d) {
      PauliString s(n);
      if (rng() % 8 != 0)  // else: the identity string
        for (std::size_t q = 0; q < n; ++q)
          s.set_op(q, static_cast<Pauli>(rng() % 4));
      const std::size_t copies = rng() % 3 == 0 ? 1 : 2 + rng() % 4;
      const double c = static_cast<double>(rng() % 2001) / 1000.0 - 1.0;
      std::vector<double> coeffs;
      const unsigned kind = rng() % 8;
      switch (kind) {
        case 0:  // cancels to exactly +0
          coeffs = {c, -c};
          break;
        case 1:  // sums to -0
          coeffs.assign(copies, -0.0);
          break;
        case 2:
          coeffs = {c, kNan};
          break;
        case 3:
          coeffs = {kInf, c, -kInf};
          break;
        default:
          for (std::size_t k = 0; k < copies; ++k)
            coeffs.push_back(static_cast<double>(rng() % 4001) / 2000.0 -
                             1.0);
      }
      merged_runs += coeffs.size() > 1 ? 1 : 0;
      zero_sums += kind <= 1 ? 1 : 0;
      for (const double coeff : coeffs) terms.emplace_back(s, coeff);
    }
    std::shuffle(terms.begin(), terms.end(), rng);

    PhoenixOptions opt;
    std::unique_ptr<Graph> graph;
    if (trial % 2 == 1 && n >= 2) {
      std::set<std::pair<std::size_t, std::size_t>> unique;
      for (std::size_t q = 0; q + 1 < n; ++q) unique.emplace(q, q + 1);
      for (std::size_t k = 0; k < n / 4; ++k) {
        const std::size_t a = rng() % n, b = rng() % n;
        if (a != b) unique.emplace(std::min(a, b), std::max(a, b));
      }
      std::vector<std::pair<std::size_t, std::size_t>> edges(unique.begin(),
                                                             unique.end());
      std::shuffle(edges.begin(), edges.end(), rng);
      graph = std::make_unique<Graph>(n);
      for (const auto& [a, b] : edges)
        rng() % 2 == 0 ? graph->add_edge(a, b) : graph->add_edge(b, a);
      opt.hardware_aware = true;
    }
    ASSERT_EQ(fingerprint_request(terms, n, opt, graph.get()),
              reference_fingerprint(terms, n, opt, graph.get()))
        << "trial " << trial << ", " << terms.size() << " terms on " << n
        << " qubits";
  }
  EXPECT_GT(merged_runs, 1000u);
  EXPECT_GT(zero_sums, 500u);
}

// Which NaN payload survives NaN + NaN depends on operand order, which the
// optimizer may swap, so every NaN must digest alike: in Hash128 and in a
// request whose duplicate strings sum to NaN.
TEST(Fingerprint, NanPayloadsHashAlike) {
  const double a = std::bit_cast<double>(0x7ff8000000c0ffeeull);
  const double b = std::bit_cast<double>(0xfff0000000000001ull);  // -sNaN
  const auto digest_of = [](double v) {
    Hash128 h;
    h.write_double(v);
    return h.digest();
  };
  EXPECT_EQ(digest_of(a), digest_of(b));
  EXPECT_EQ(digest_of(a),
            digest_of(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_NE(digest_of(0.0), digest_of(-0.0));

  const PhoenixOptions opt;
  const std::vector<PauliTerm> ab = {PauliTerm("XZ", a), PauliTerm("XZ", b)};
  const std::vector<PauliTerm> ba = {PauliTerm("XZ", b), PauliTerm("XZ", a)};
  EXPECT_EQ(fingerprint_request(ab, 2, opt), fingerprint_request(ba, 2, opt));
  EXPECT_EQ(fingerprint_request(ab, 2, opt),
            fingerprint_request(
                {PauliTerm("XZ", std::numeric_limits<double>::quiet_NaN())}, 2,
                opt));
}

// --- serialization ----------------------------------------------------------

void expect_results_identical(const CompileResult& a, const CompileResult& b) {
  expect_circuits_identical(a.circuit, b.circuit);
  expect_circuits_identical(a.logical, b.logical);
  EXPECT_EQ(a.num_swaps, b.num_swaps);
  EXPECT_EQ(a.num_groups, b.num_groups);
  EXPECT_EQ(a.bsf_epochs, b.bsf_epochs);
  EXPECT_EQ(a.initial_layout, b.initial_layout);
  EXPECT_EQ(a.final_layout, b.final_layout);
  ASSERT_EQ(a.diagnostics.size(), b.diagnostics.size());
  for (std::size_t i = 0; i < a.diagnostics.size(); ++i) {
    EXPECT_EQ(a.diagnostics[i].name, b.diagnostics[i].name);
    EXPECT_EQ(a.diagnostics[i].checked, b.diagnostics[i].checked);
    EXPECT_EQ(a.diagnostics[i].note, b.diagnostics[i].note);
  }
  const ValidationReport &va = a.validation, &vb = b.validation;
  EXPECT_EQ(va.status, vb.status);
  EXPECT_EQ(va.frame_checked, vb.frame_checked);
  EXPECT_EQ(va.frame_ok, vb.frame_ok);
  EXPECT_EQ(va.exact_checked, vb.exact_checked);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(va.exact_infidelity),
            std::bit_cast<std::uint64_t>(vb.exact_infidelity));
  EXPECT_EQ(va.message, vb.message);
  ASSERT_EQ(va.realized_order.size(), vb.realized_order.size());
  for (std::size_t i = 0; i < va.realized_order.size(); ++i) {
    EXPECT_EQ(va.realized_order[i].string, vb.realized_order[i].string);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(va.realized_order[i].coeff),
              std::bit_cast<std::uint64_t>(vb.realized_order[i].coeff));
  }
}

/// Decode, compare field for field, and re-encode: a second encode of the
/// decode is byte-identical, so the format is a fixed point, not merely
/// tolerant.
void expect_round_trip(const CompileResult& cold) {
  const std::string bytes = compile_result_to_bytes(cold);
  const CompileResult back = compile_result_from_bytes(bytes);
  expect_results_identical(cold, back);
  EXPECT_EQ(bytes, compile_result_to_bytes(back));
}

TEST(SerializeResult, RoundTripIsBitIdentical) {
  const auto& b = lih_bk();
  PhoenixOptions opt;
  opt.validation.level = ValidationLevel::Cheap;
  expect_round_trip(phoenix_compile(b.terms, b.num_qubits, opt));
}

// A Cheap-validated routed result exercises every field of the encoding:
// layouts, diagnostics, the realized order, and a logical circuit that
// differs from the routed one (so it travels in full).
TEST(SerializeResult, HardwareAwareRoundTripKeepsLayouts) {
  const Graph device = topology_manhattan();
  PhoenixOptions opt;
  opt.hardware_aware = true;
  opt.coupling = &device;
  opt.validation.level = ValidationLevel::Cheap;
  const auto& b = lih_bk();
  const CompileResult cold = phoenix_compile(b.terms, b.num_qubits, opt);
  ASSERT_EQ(cold.validation.status, ValidationStatus::Pass);
  ASSERT_FALSE(cold.initial_layout.empty());
  ASSERT_FALSE(cold.diagnostics.empty());
  ASSERT_FALSE(cold.validation.realized_order.empty());
  ASSERT_NE(cold.logical.num_qubits(), cold.circuit.num_qubits());
  expect_round_trip(cold);
}

/// Byte offset of the schema version varint (right after the magic).
constexpr std::size_t kSchemaVersionAt = 4;

bool rejected_as_parse_error(const std::string& bytes) {
  try {
    compile_result_from_bytes(bytes);
  } catch (const Error& e) {
    return e.stage() == Stage::Parse;
  }
  return false;
}

TEST(SerializeResult, RejectsStaleOrForeignSchema) {
  const CompileResult cold = phoenix_compile(small_terms(), 4);
  std::string bytes = compile_result_to_bytes(cold);
  ASSERT_EQ(bytes.substr(0, kSchemaVersionAt), "PHXR");
  ASSERT_EQ(bytes[kSchemaVersionAt], kCompileResultSchemaVersion);

  for (const int version :
       {kCompileResultSchemaVersion - 1, kCompileResultSchemaVersion + 1}) {
    std::string stale = bytes;
    stale[kSchemaVersionAt] = static_cast<char>(version);
    EXPECT_TRUE(rejected_as_parse_error(stale)) << "version " << version;
  }

  EXPECT_TRUE(rejected_as_parse_error("not a cache entry"));
  EXPECT_TRUE(rejected_as_parse_error(""));
  EXPECT_TRUE(rejected_as_parse_error(bytes.substr(0, bytes.size() / 2)));
}

// A concatenation of two results, or a network frame with garbage appended,
// must not round-trip as a valid result: every trailing byte is rejected,
// whitespace too.
TEST(SerializeResult, RejectsTrailingGarbage) {
  const CompileResult cold = phoenix_compile(small_terms(), 4);
  const std::string bytes = compile_result_to_bytes(cold);

  for (const std::string& tail :
       {std::string("junk"), std::string("end"), bytes, std::string("\n \n"),
        std::string(1, '\0')}) {
    EXPECT_TRUE(rejected_as_parse_error(bytes + tail))
        << "trailing bytes accepted: " << tail.substr(0, 16);
  }
}

TEST(SerializeResult, RejectsEveryProperPrefix) {
  const auto& b = lih_bk();
  PhoenixOptions opt;
  opt.validation.level = ValidationLevel::Cheap;
  const std::string bytes =
      compile_result_to_bytes(phoenix_compile(b.terms, b.num_qubits, opt));
  for (std::size_t len = 0; len < bytes.size(); ++len)
    ASSERT_TRUE(rejected_as_parse_error(bytes.substr(0, len)))
        << "prefix of " << len << " of " << bytes.size() << " bytes accepted";
}

/// Magic, schema version and a `qubits`-wide register.
std::string result_header(std::uint64_t qubits) {
  std::string out = "PHXR";
  put_varint(out, kCompileResultSchemaVersion);
  put_varint(out, qubits);
  return out;
}

// A count that claims 2^40 elements must be rejected against the bytes
// actually left, before anything is reserved (a reserve of that size would
// surface as std::length_error / bad_alloc, not a Parse error).
TEST(SerializeResult, RejectsHugeCountsWithoutAllocating) {
  constexpr std::uint64_t kHuge = 1ull << 40;
  const std::string padding(64, '\0');

  std::string gates = result_header(4);
  put_varint(gates, kHuge);
  EXPECT_TRUE(rejected_as_parse_error(gates + padding));

  std::string sub = result_header(4);
  put_varint(sub, 1);  // one Su4 gate on qubits 0 and 1 ("q1 follows")
  sub += static_cast<char>(static_cast<unsigned>(GateKind::Su4) | 0x40);
  put_varint(sub, 0);
  put_varint(sub, 1);
  put_varint(sub, kHuge);  // sub-gates
  EXPECT_TRUE(rejected_as_parse_error(sub + padding));

  std::string layout = result_header(4);
  put_varint(layout, 0);  // no gates
  layout += '\0';         // logical == circuit
  for (int i = 0; i < 3; ++i) put_varint(layout, 0);  // counts
  put_varint(layout, kHuge);                          // initial layout
  EXPECT_TRUE(rejected_as_parse_error(layout + padding));

  // A varint of 11 bytes, and a 10-byte one that overflows 64 bits.
  std::string overlong = result_header(4);
  overlong += std::string(10, static_cast<char>(0x80)) + '\x01';
  EXPECT_TRUE(rejected_as_parse_error(overlong + padding));
  std::string overflow = result_header(4);
  overflow += std::string(9, static_cast<char>(0xff)) + '\x02';
  EXPECT_TRUE(rejected_as_parse_error(overflow + padding));
}

// Every single-bit corruption of a small result either still decodes (a
// flipped parameter bit is a different, well-formed result) or raises a
// structured Error — never a crash, a foreign exception type or a huge
// allocation. The sanitizer builds run this too.
TEST(SerializeResult, EverySingleBitFlipDecodesOrThrowsError) {
  PhoenixOptions opt;
  opt.validation.level = ValidationLevel::Cheap;
  const std::string bytes =
      compile_result_to_bytes(phoenix_compile(small_terms(), 4, opt));
  std::size_t rejected = 0;
  for (std::size_t bit = 0; bit < 8 * bytes.size(); ++bit) {
    std::string flipped = bytes;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    try {
      compile_result_from_bytes(flipped);
    } catch (const Error&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
}

TEST(SerializeResult, Su4ResultRoundTripsSubGates) {
  PhoenixOptions opt;
  opt.isa = TwoQubitIsa::Su4;
  const auto& b = lih_bk();
  const CompileResult cold = phoenix_compile(b.terms, b.num_qubits, opt);
  std::size_t blocks = 0;
  for (const Gate& g : cold.circuit.gates())
    blocks += g.kind == GateKind::Su4 && !g.sub.empty();
  ASSERT_GT(blocks, 0u);
  expect_round_trip(cold);
}

// Every Gate field travels, even where the gate kind does not use it: a
// parameter on a Clifford, a q1 on a 1Q gate, -0.0 and NaN payload bits.
TEST(SerializeResult, UnusedGateFieldsRoundTripExactly) {
  CompileResult r;
  r.circuit = Circuit(3);
  r.circuit.append(Gate::h(2));
  Gate odd = Gate::x(1);
  odd.q1 = 2;
  odd.param = 0.75;
  r.circuit.append(odd);
  r.circuit.append(Gate::rz(0, -0.0));
  r.circuit.append(Gate::rx(0, std::bit_cast<double>(0x7ff8000000000123ull)));
  r.circuit.append(Gate::cnot(2, 0));
  r.logical = r.circuit;
  expect_round_trip(r);
  // A logical circuit that differs from `circuit` travels in full.
  r.logical = Circuit(3);
  r.logical.append(Gate::h(2));
  expect_round_trip(r);
}

// --- cache ------------------------------------------------------------------

/// A synthetic result with a payload of roughly `gates` gates, for byte-
/// budget tests without paying for real compiles.
CompileResult synthetic_result(std::size_t gates) {
  CompileResult r;
  r.circuit = Circuit(4);
  for (std::size_t i = 0; i < gates; ++i)
    r.circuit.append(Gate::rz(i % 4, 0.25 * static_cast<double>(i + 1)));
  r.logical = r.circuit;
  r.num_groups = gates;
  return r;
}

Digest128 key_of(std::uint64_t i) {
  Hash128 h(i);
  h.write_u64(i);
  return h.digest();
}

TEST(CompileCache, HitReturnsTheSharedObject) {
  CompileCache cache;
  const Digest128 k = key_of(1);
  EXPECT_EQ(cache.get(k), nullptr);
  auto value = std::make_shared<const CompileResult>(synthetic_result(10));
  cache.put(k, value);
  EXPECT_EQ(cache.get(k).get(), value.get());
  const auto c = cache.counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 1u);
}

TEST(CompileCache, EvictionRespectsByteBudget) {
  const std::size_t entry_bytes =
      compile_result_approx_bytes(synthetic_result(64));
  CacheOptions opt;
  opt.shards = 1;  // one budget slice, deterministic accounting
  opt.max_bytes = 4 * entry_bytes + entry_bytes / 2;
  CompileCache cache(opt);

  for (std::uint64_t i = 0; i < 32; ++i)
    cache.put(key_of(i),
              std::make_shared<const CompileResult>(synthetic_result(64)));

  const auto c = cache.counters();
  EXPECT_GT(c.evictions, 0u);
  EXPECT_LE(c.bytes, opt.max_bytes);
  EXPECT_LE(c.entries, 4u);
  // Most-recently inserted survives; the oldest were evicted.
  EXPECT_NE(cache.get(key_of(31)), nullptr);
  EXPECT_EQ(cache.get(key_of(0)), nullptr);
}

TEST(CompileCache, LruOrderRespectsTouches) {
  const std::size_t entry_bytes =
      compile_result_approx_bytes(synthetic_result(64));
  CacheOptions opt;
  opt.shards = 1;
  opt.max_bytes = 2 * entry_bytes + entry_bytes / 2;
  CompileCache cache(opt);
  cache.put(key_of(1), std::make_shared<const CompileResult>(synthetic_result(64)));
  cache.put(key_of(2), std::make_shared<const CompileResult>(synthetic_result(64)));
  ASSERT_NE(cache.get(key_of(1)), nullptr);  // touch 1 → 2 is now LRU
  cache.put(key_of(3), std::make_shared<const CompileResult>(synthetic_result(64)));
  EXPECT_NE(cache.get(key_of(1)), nullptr);
  EXPECT_EQ(cache.get(key_of(2)), nullptr);
}

TEST(CompileCache, OversizedEntryIsAdmittedAlone) {
  CacheOptions opt;
  opt.shards = 1;
  opt.max_bytes = 16;  // far below any real entry
  CompileCache cache(opt);
  cache.put(key_of(7),
            std::make_shared<const CompileResult>(synthetic_result(64)));
  EXPECT_NE(cache.get(key_of(7)), nullptr);
  EXPECT_EQ(cache.counters().entries, 1u);
}

/// Sharded location of a disk entry (first two hex digits of the key).
std::string entry_path(const std::string& dir, const Digest128& k) {
  return dir + "/" + k.hex().substr(0, 2) + "/" + k.hex() + ".phxc";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& contents) {
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
}

void put_u64_le(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out += static_cast<char>((v >> (8 * i)) & 0xff);
}

/// The disk tier's integrity trailer as cache.hpp documents it: payload
/// length, Hash128 of the payload (hi, lo), magic "PHXK".
std::string with_footer(const std::string& payload) {
  Hash128 h;
  h.write_bytes(payload.data(), payload.size());
  const Digest128 d = h.digest();
  std::string out = payload;
  put_u64_le(out, payload.size());
  put_u64_le(out, d.hi);
  put_u64_le(out, d.lo);
  return out + "PHXK";
}

// The entry is the encoded result plus the trailer, and a fresh cache (a
// fresh "process") on the same directory hands back the same bytes. A
// validated routed result exercises every field of the encoding.
TEST(CompileCache, DiskPersistenceSurvivesProcessBoundary) {
  const TempDir dir("diskcache");
  const Digest128 k = key_of(42);
  const Graph device = topology_manhattan();
  PhoenixOptions popt;
  popt.hardware_aware = true;
  popt.coupling = &device;
  popt.validation.level = ValidationLevel::Cheap;
  const CompileResult original = phoenix_compile(small_terms(), 4, popt);
  ASSERT_FALSE(original.validation.realized_order.empty());
  const std::string bytes = compile_result_to_bytes(original);
  CacheOptions opt;
  opt.disk_dir = dir.str();
  {
    CompileCache writer(opt);
    writer.put(k, std::make_shared<const CompileResult>(original));
  }
  EXPECT_EQ(read_file(entry_path(dir.str(), k)), with_footer(bytes));

  CompileCache reader(opt);
  const auto loaded = reader.get(k);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(compile_result_to_bytes(*loaded), bytes);
  EXPECT_EQ(reader.counters().disk_hits, 1u);
  // Second get is served from memory (promoted).
  EXPECT_NE(reader.get(k), nullptr);
  EXPECT_EQ(reader.counters().hits, 1u);
}

// The stale entry carries a valid footer, so the reject comes from the
// payload's schema version, not from the checksum.
TEST(CompileCache, DiskRejectsStaleSchemaTag) {
  const TempDir dir("staledisk");
  const Digest128 k = key_of(43);
  std::string stale =
      compile_result_to_bytes(phoenix_compile(small_terms(), 4));
  stale[kSchemaVersionAt] = static_cast<char>(kCompileResultSchemaVersion - 1);
  write_file(entry_path(dir.str(), k), with_footer(stale));

  CacheOptions opt;
  opt.disk_dir = dir.str();
  CompileCache reader(opt);
  EXPECT_EQ(reader.get(k), nullptr);
  const auto c = reader.counters();
  EXPECT_EQ(c.disk_rejects, 1u);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_TRUE(
      std::filesystem::exists(entry_path(dir.str(), k) + ".quarantine"));
}

// An entry an older build wrote — the v1 text document with its
// `checksum <hex> <len>` footer line — is a disk reject, recompiled and
// republished in the current format.
TEST(CompileCache, TextEntryOfAnOlderBuildIsRejectedAndReplaced) {
  const TempDir dir("textentry");
  const Digest128 k = key_of(46);
  const std::string doc =
      "phoenix-compile-result v1\ncircuit 4 0\nlogical 4 0\ncounts 0 0 0\n"
      "layout initial 0\nlayout final 0\ndiagnostics 0\n"
      "validation 2 0 0 0 bff0000000000000 %e 0\nend\n";
  Hash128 h;
  h.write_bytes(doc.data(), doc.size());
  write_file(entry_path(dir.str(), k),
             doc + "checksum " + h.digest().hex() + " " +
                 std::to_string(doc.size()) + "\n");

  CacheOptions opt;
  opt.disk_dir = dir.str();
  const auto fresh = std::make_shared<const CompileResult>(
      phoenix_compile(small_terms(), 4));
  {
    CompileCache reader(opt);
    EXPECT_EQ(reader.get(k), nullptr);
    EXPECT_EQ(reader.counters().disk_rejects, 1u);
    EXPECT_EQ(reader.counters().misses, 1u);
    reader.put(k, fresh);  // what the service does after the recompile
  }
  CompileCache next(opt);
  const auto loaded = next.get(k);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(next.counters().disk_rejects, 0u);
  EXPECT_EQ(compile_result_to_bytes(*loaded), compile_result_to_bytes(*fresh));
}

// --- service ----------------------------------------------------------------

TEST(Service, WarmHitIsBitIdenticalToColdCompile) {
  const auto& b = lih_bk();
  CompileService svc;
  const auto cold = svc.compile(b.terms, b.num_qubits);
  const auto uncached = phoenix_compile(b.terms, b.num_qubits);
  expect_circuits_identical(cold->circuit, uncached.circuit);

  const auto warm = svc.compile(b.terms, b.num_qubits);
  EXPECT_EQ(warm.get(), cold.get());  // the very same shared snapshot
  const auto s = svc.stats();
  EXPECT_EQ(s.requests, 2u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
}

TEST(Service, PermutedRequestHitsTheSameEntry) {
  const auto terms = small_terms();
  auto permuted = terms;
  std::swap(permuted[0], permuted[2]);
  CompileService svc;
  const auto a = svc.compile(terms, 4);
  const auto b = svc.compile(permuted, 4);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(svc.stats().misses, 1u);
}

TEST(Service, CompileErrorsPropagateAndAreNotCached) {
  ServiceOptions opt;
  std::atomic<int> calls{0};
  CompileService svc(opt, [&](const CompileRequest&) -> CompileResult {
    ++calls;
    throw Error(Stage::Simplify, "injected failure");
  });
  EXPECT_THROW(svc.compile(small_terms(), 4), Error);
  EXPECT_THROW(svc.compile(small_terms(), 4), Error);
  EXPECT_EQ(calls.load(), 2);  // failures are retried, not cached
}

TEST(Service, SingleFlightStressOneCompilePerFingerprint) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kUnique = 5;
  constexpr std::size_t kRounds = 6;

  std::atomic<std::size_t> compiles{0};
  ServiceOptions opt;
  CompileService svc(opt, [&](const CompileRequest& req) {
    compiles.fetch_add(1);
    // Hold the flight open long enough that every thread piles onto it.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    CompileResult r;
    r.circuit = Circuit(req.num_qubits);
    r.num_groups = req.terms.size();
    return r;
  });

  // kUnique distinct Hamiltonians; every thread requests all of them,
  // kRounds times, concurrently.
  std::vector<std::vector<PauliTerm>> inputs;
  for (std::size_t u = 0; u < kUnique; ++u)
    inputs.push_back({PauliTerm("XX", 1.0 + static_cast<double>(u))});

  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (std::size_t round = 0; round < kRounds; ++round)
        for (std::size_t u = 0; u < kUnique; ++u) {
          const auto r = svc.compile(inputs[u], 2);
          if (r == nullptr || r->num_groups != 1) failed = true;
        }
    });
  for (auto& t : threads) t.join();

  EXPECT_FALSE(failed.load());
  EXPECT_EQ(compiles.load(), kUnique);  // exactly one compile per fingerprint
  const auto s = svc.stats();
  EXPECT_EQ(s.misses, kUnique);
  EXPECT_EQ(s.requests, kThreads * kRounds * kUnique);
  EXPECT_EQ(s.hits + s.inflight_joins + s.misses, s.requests);
  EXPECT_GT(s.inflight_joins, 0u);
}

// Regression: a submitter used to read the cache and only afterwards take
// the flight-table lock to join or create a flight. An instant compile can
// publish (cache put, flight erase) in between, and the late submitter then
// compiled the same fingerprint a second time. Each round, every thread
// races one fresh fingerprint, half of them through compile() and half
// through submit().
TEST(Service, InstantCompilesRunOncePerFingerprint) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRounds = 300;

  std::atomic<std::size_t> compiles{0};
  CompileService svc(ServiceOptions{}, [&](const CompileRequest& req) {
    compiles.fetch_add(1);
    CompileResult r;
    r.circuit = Circuit(req.num_qubits);
    return r;
  });

  std::barrier start(static_cast<std::ptrdiff_t>(kThreads));
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        CompileRequest req;
        req.terms = {PauliTerm("XX", 1.0 + static_cast<double>(round))};
        req.num_qubits = 2;
        start.arrive_and_wait();
        const auto r = t % 2 == 0 ? svc.compile(req)
                                  : svc.submit(std::move(req)).get();
        if (r == nullptr) failed = true;
      }
    });
  for (auto& t : threads) t.join();

  EXPECT_FALSE(failed.load());
  EXPECT_EQ(compiles.load(), kRounds);  // one compile per fingerprint
  const auto s = svc.stats();
  EXPECT_EQ(s.requests, kThreads * kRounds);
  EXPECT_EQ(s.hits + s.inflight_joins + s.misses, s.requests);
}

TEST(Service, SubmitSchedulesByPriority) {
  // One worker; the first job blocks the queue while the rest are enqueued
  // with distinct priorities, so completion order must follow priority.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::vector<double> order;

  ServiceOptions opt;
  opt.num_threads = 1;
  CompileService svc(opt, [&](const CompileRequest& req) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });
      order.push_back(req.terms[0].coeff);
    }
    CompileResult r;
    r.circuit = Circuit(req.num_qubits);
    return r;
  });

  auto request = [](double tag) {
    CompileRequest req;
    req.terms = {PauliTerm("XX", tag)};
    req.num_qubits = 2;
    return req;
  };

  auto gate = svc.submit(request(0.0), 0);  // occupies the single worker
  // Wait until the gate job is actually running (queue drained to 0).
  while (svc.stats().queue_depth != 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  auto low = svc.submit(request(1.0), 1);
  auto mid = svc.submit(request(2.0), 5);
  auto high = svc.submit(request(3.0), 9);
  EXPECT_EQ(svc.stats().queue_depth, 3u);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  gate.get();
  low.get();
  mid.get();
  high.get();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 0.0);
  EXPECT_EQ(order[1], 3.0);  // high priority first
  EXPECT_EQ(order[2], 2.0);
  EXPECT_EQ(order[3], 1.0);
}

TEST(Service, CancelSkipsQueuedCompile) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> compiles{0};

  ServiceOptions opt;
  opt.num_threads = 1;
  CompileService svc(opt, [&](const CompileRequest& req) {
    compiles.fetch_add(1);
    if (req.terms[0].coeff == 0.0) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });
    }
    CompileResult r;
    r.circuit = Circuit(req.num_qubits);
    return r;
  });

  CompileRequest blocker;
  blocker.terms = {PauliTerm("XX", 0.0)};
  blocker.num_qubits = 2;
  CompileRequest victim;
  victim.terms = {PauliTerm("YY", 1.0)};
  victim.num_qubits = 2;

  auto gate = svc.submit(blocker, 0);
  while (svc.stats().queue_depth != 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  auto doomed = svc.submit(victim, 0);
  EXPECT_TRUE(doomed.cancel());
  EXPECT_FALSE(doomed.cancel());  // idempotent: second call reports nothing new
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  EXPECT_NE(gate.get(), nullptr);
  EXPECT_EQ(doomed.get(), nullptr);
  // Drain: submit + wait for an unrelated compile so the cancelled job has
  // definitely been dequeued before asserting.
  CompileRequest tail;
  tail.terms = {PauliTerm("ZZ", 2.0)};
  tail.num_qubits = 2;
  EXPECT_NE(svc.submit(tail, 0).get(), nullptr);
  EXPECT_EQ(compiles.load(), 2);  // blocker + tail; the victim never compiled
  EXPECT_EQ(svc.stats().cancelled, 1u);
}

TEST(Service, BatchDeduplicatesAndPreservesOrder) {
  std::atomic<int> compiles{0};
  ServiceOptions opt;
  opt.num_threads = 4;
  CompileService svc(opt, [&](const CompileRequest& req) {
    compiles.fetch_add(1);
    CompileResult r;
    r.circuit = Circuit(req.num_qubits);
    r.num_groups = static_cast<std::size_t>(req.terms[0].coeff);
    return r;
  });

  std::vector<CompileRequest> batch;
  for (const double tag : {1.0, 2.0, 1.0, 3.0, 2.0, 1.0}) {
    CompileRequest req;
    req.terms = {PauliTerm("XX", tag)};
    req.num_qubits = 2;
    batch.push_back(std::move(req));
  }
  const auto results = svc.compile_batch(batch);
  ASSERT_EQ(results.size(), 6u);
  const std::size_t expected[] = {1, 2, 1, 3, 2, 1};
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_NE(results[i], nullptr);
    EXPECT_EQ(results[i]->num_groups, expected[i]);
  }
  EXPECT_EQ(compiles.load(), 3);  // one per unique fingerprint
  EXPECT_EQ(results[0].get(), results[2].get());
  EXPECT_EQ(results[2].get(), results[5].get());
}

TEST(Service, BatchWithRealCompilesMatchesDirectPipeline) {
  const auto& b = lih_bk();
  ServiceOptions opt;
  CompileService svc(opt);
  std::vector<CompileRequest> batch(3);
  for (auto& req : batch) {
    req.terms = b.terms;
    req.num_qubits = b.num_qubits;
  }
  const auto results = svc.compile_batch(batch);
  const CompileResult direct = phoenix_compile(b.terms, b.num_qubits);
  for (const auto& r : results) {
    ASSERT_NE(r, nullptr);
    expect_circuits_identical(direct.circuit, r->circuit);
  }
  EXPECT_EQ(svc.stats().misses, 1u);
}

TEST(Service, DiskCacheWarmStartAcrossServiceInstances) {
  const TempDir dir("servicedisk");
  const auto terms = small_terms();
  ServiceOptions opt;
  opt.cache.disk_dir = dir.str();

  CompileResult direct = phoenix_compile(terms, 4);
  {
    CompileService first(opt);
    first.compile(terms, 4);
    EXPECT_EQ(first.stats().misses, 1u);
  }
  CompileService second(opt);
  const auto warm = second.compile(terms, 4);
  ASSERT_NE(warm, nullptr);
  expect_circuits_identical(direct.circuit, warm->circuit);
  const auto s = second.stats();
  EXPECT_EQ(s.misses, 0u);  // no compile ran in the second service
  EXPECT_EQ(s.disk_hits, 1u);
}

// --- deadlines at the edges of the double range -----------------------------

/// A cold request: `c0` gives it a fresh fingerprint, and peephole O3 keeps
/// it off the bind path, so each one runs a flight with its own deadline.
CompileRequest cold_small(double c0, double deadline_ms) {
  CompileRequest req;
  req.terms = small_terms();
  req.terms[0].coeff = c0;
  req.num_qubits = 4;
  req.options.peephole = PeepholeLevel::O3;
  req.deadline_ms = deadline_ms;
  return req;
}

/// The Error `f` throws (Failed/Parse when it throws none, after a failure).
Error error_of(const std::function<void()>& f) {
  try {
    f();
  } catch (const Error& e) {
    return e;
  }
  ADD_FAILURE() << "expected a phoenix::Error";
  return Error(Stage::Parse, "no error");
}

TEST(ServiceDeadline, BeyondTheClockMeansNoDeadline) {
  CompileService svc;
  double c0 = 0.3;
  for (const double ms : {1e300, std::numeric_limits<double>::max(),
                          kMaxDeadlineMs}) {
    const CompileRequest a = cold_small(c0 += 0.1, ms);
    const auto sync = svc.compile(a);
    ASSERT_NE(sync, nullptr) << ms;
    expect_circuits_identical(
        sync->circuit, phoenix_compile(a.terms, 4, a.options).circuit);
    EXPECT_NE(svc.submit(cold_small(c0 += 0.1, ms)).get(), nullptr) << ms;
  }
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.misses, 6u);
  EXPECT_EQ(s.timeouts, 0u);
}

TEST(ServiceDeadline, NegativeInfinityAndHugeNegativeAreExpired) {
  CompileService svc;
  double c0 = 0.3;
  for (const double ms : {-std::numeric_limits<double>::infinity(), -1e300,
                          -kMaxDeadlineMs}) {
    EXPECT_EQ(error_of([&] { svc.compile(cold_small(c0 += 0.1, ms)); }).kind(),
              Error::Kind::DeadlineExceeded)
        << ms;
    CompileService::Ticket t = svc.submit(cold_small(c0 += 0.1, ms));
    EXPECT_EQ(error_of([&] { t.get(); }).kind(), Error::Kind::DeadlineExceeded)
        << ms;
  }
}

// NaN names no moment, so it is neither "none" nor "expired": the request is
// refused before it is counted, looked up or given a flight.
TEST(ServiceDeadline, NanIsRefusedBeforeAnyFlight) {
  CompileService svc;
  svc.compile(cold_small(0.3, CompileRequest::kNoDeadline));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double c0 : {0.3, 0.4}) {  // resident, then cold
    const Error sync = error_of([&] { svc.compile(cold_small(c0, nan)); });
    EXPECT_EQ(sync.kind(), Error::Kind::Failed);
    EXPECT_EQ(sync.stage(), Stage::Service);
    const Error async = error_of([&] { svc.submit(cold_small(c0, nan)); });
    EXPECT_EQ(async.kind(), Error::Kind::Failed);
    EXPECT_EQ(async.stage(), Stage::Service);
  }
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.requests, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.inflight_joins, 0u);
}

// --- thread-pool edges exposed by concurrent service use --------------------

TEST(ThreadPool, SubmitRunsByPriorityWithFifoTies) {
  ThreadPool pool(1);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::vector<int> order;

  pool.submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });
  while (pool.queue_depth() != 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  auto record = [&](int tag) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(tag);
  };
  pool.submit([&, t = 10] { record(t); }, 0);
  pool.submit([&, t = 20] { record(t); }, 5);
  pool.submit([&, t = 11] { record(t); }, 0);
  pool.submit([&, t = 21] { record(t); }, 5);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  while (pool.queue_depth() != 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  // Let the final job finish (queue empty != job done).
  std::mutex done_mu;
  std::condition_variable done_cv;
  bool done = false;
  pool.submit([&] {
    std::lock_guard<std::mutex> lock(done_mu);
    done = true;
    done_cv.notify_one();
  }, -1);
  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&] { return done; });
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 20);
  EXPECT_EQ(order[1], 21);
  EXPECT_EQ(order[2], 10);
  EXPECT_EQ(order[3], 11);
}

TEST(ThreadPool, NestedParallelForFromWorkersDoesNotDeadlock) {
  // Saturate a small pool with jobs that each run a parallel_for on the same
  // pool — before the help-while-waiting fix the callers could all block on
  // helper tasks stuck behind one another.
  ThreadPool pool(2);
  std::atomic<std::size_t> total{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(16, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 8u * 16u);
}

TEST(ThreadPool, SubmitFromWorkerThreadCompletes) {
  ThreadPool pool(1);
  std::atomic<bool> inner_ran{false};
  std::mutex mu;
  std::condition_variable cv;
  bool outer_done = false;
  pool.submit([&] {
    pool.submit([&] { inner_ran = true; });  // enqueued from the worker itself
    std::lock_guard<std::mutex> lock(mu);
    outer_done = true;
    cv.notify_one();
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return outer_done; });
  }
  // Inner job must still run (same single worker, after the outer returns).
  while (!inner_ran.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  SUCCEED();
}

TEST(ThreadPool, DestructorDrainsQueuedJobs) {
  std::atomic<std::size_t> ran{0};
  {
    ThreadPool pool(1);
    std::mutex mu;
    std::condition_variable cv;
    bool release = false;
    pool.submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });
    });
    for (int i = 0; i < 16; ++i)
      pool.submit([&] { ran.fetch_add(1, std::memory_order_relaxed); });
    {
      std::lock_guard<std::mutex> lock(mu);
      release = true;
    }
    cv.notify_all();
    // Destructor: stop intake, drain the 16 queued jobs, join.
  }
  EXPECT_EQ(ran.load(), 16u);
}

TEST(ThreadPool, ZeroWorkerSubmitRunsInline) {
  ThreadPool pool(0);
  bool ran = false;
  pool.submit([&] { ran = true; });
  EXPECT_TRUE(ran);
}

}  // namespace
}  // namespace phoenix
