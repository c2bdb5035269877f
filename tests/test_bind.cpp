// Bind-path tests: skeleton construction and decoding (src/phoenix/bind.hpp),
// the encoder's param offsets the byte bind writes at, the guards that send a
// coefficient back to a full compile, a seeded corpus of fresh-amplitude
// binds over the 14 distinct UCCSD programs, a random-Hamiltonian property
// test, and the compile service's bind path (second-miss build, inline
// binds, counters, deadlines, order-sensitive keys, concurrency). Every
// bound result must be the encoded result of phoenix_compile of the same
// request, byte for byte.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <ostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/angles.hpp"
#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "hamlib/uccsd.hpp"
#include "phoenix/bind.hpp"
#include "phoenix/serialize.hpp"
#include "service/service.hpp"

namespace phoenix {
namespace {

bool same_circuit(const Circuit& a, const Circuit& b) {
  if (a.num_qubits() != b.num_qubits() || a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Gate& x = a.gate(i);
    const Gate& y = b.gate(i);
    if (x.kind != y.kind || x.q0 != y.q0 || x.q1 != y.q1 || !x.sub.empty() ||
        !y.sub.empty() ||
        std::bit_cast<std::uint64_t>(x.param) !=
            std::bit_cast<std::uint64_t>(y.param))
      return false;
  }
  return true;
}

/// Equal in every field phoenix_compile fills for a logical compile without
/// validation: circuits with exact parameter bits, counts and layouts.
bool same_result(const CompileResult& a, const CompileResult& b) {
  return same_circuit(a.circuit, b.circuit) &&
         same_circuit(a.logical, b.logical) && a.num_groups == b.num_groups &&
         a.bsf_epochs == b.bsf_epochs && a.num_swaps == b.num_swaps &&
         a.initial_layout == b.initial_layout &&
         a.final_layout == b.final_layout;
}

/// What a bind must return: the encoded result of the real compile.
std::string compiled_bytes(const std::vector<PauliTerm>& terms,
                           std::size_t num_qubits,
                           const PhoenixOptions& opt = {}) {
  return compile_result_to_bytes(phoenix_compile(terms, num_qubits, opt));
}

/// The 8 bytes at `at` of an encoded result, as put_u64 wrote them.
std::uint64_t u64_at(const std::string& bytes, std::size_t at) {
  return get_u64(reinterpret_cast<const unsigned char*>(bytes.data()) + at);
}

std::size_t count_kind(const Circuit& c, GateKind kind) {
  return static_cast<std::size_t>(
      std::count_if(c.gates().begin(), c.gates().end(),
                    [&](const Gate& g) { return g.kind == kind; }));
}

/// One of the 14 distinct logical UCCSD programs (the paper's 16 minus
/// NH_cmplt_{BK,JW}, which repeat H2O_frz_{BK,JW}).
struct Program {
  std::string name;
  Molecule molecule;
  bool frozen;
  FermionEncoding encoding;

  UccsdBenchmark with_amplitudes(std::uint64_t seed) const {
    return generate_uccsd(molecule, frozen, encoding, seed);
  }
};

void PrintTo(const Program& p, std::ostream* os) { *os << p.name; }

std::vector<Program> distinct_programs() {
  std::vector<Program> out;
  const std::pair<const char*, Molecule> molecules[] = {
      {"CH2", Molecule::ch2()},
      {"H2O", Molecule::h2o()},
      {"LiH", Molecule::lih()},
      {"NH", Molecule::nh()}};
  for (const auto& [name, mol] : molecules)
    for (const bool frozen : {false, true}) {
      if (std::string(name) == "NH" && !frozen) continue;
      for (const FermionEncoding enc :
           {FermionEncoding::BravyiKitaev, FermionEncoding::JordanWigner})
        out.push_back(
            {std::string(name) + (frozen ? "_frz_" : "_cmplt_") +
                 (enc == FermionEncoding::BravyiKitaev ? "BK" : "JW"),
             mol, frozen, enc});
    }
  return out;
}

const Program& program(const std::string& name) {
  static const std::vector<Program> all = distinct_programs();
  for (const Program& p : all)
    if (p.name == name) return p;
  throw std::invalid_argument("no program " + name);
}

CompileRequest request_of(const UccsdBenchmark& b) {
  CompileRequest req;
  req.terms = b.terms;
  req.num_qubits = b.num_qubits;
  return req;
}

CompileResult reference(const CompileRequest& req) {
  return phoenix_compile(req.terms, req.num_qubits, req.options);
}

template <class F>
Error::Kind kind_of(F&& f) {
  try {
    f();
  } catch (const Error& e) {
    return e.kind();
  }
  ADD_FAILURE() << "expected a phoenix::Error";
  return Error::Kind::Failed;
}

/// requests == hits + inflight_joins + misses + bind_hits.
void expect_request_identity(const ServiceStats& s) {
  EXPECT_EQ(s.hits + s.inflight_joins + s.misses + s.bind_hits, s.requests);
}

// --- skeletons ---------------------------------------------------------------

TEST(BindSkeleton, EveryNonIdentityTermGetsOneSlot) {
  const std::vector<PauliTerm> terms = {
      {"XXI", 0.3}, {"III", 0.7}, {"IYZ", -0.2}, {"ZIZ", 0.9}};
  const auto s = build_skeleton(terms, 3, {});
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->num_terms, 4u);
  ASSERT_EQ(s->slots.size(), 3u);
  // Each slot's offset is where the encoder wrote an Rz's angle.
  const CompileResult probe = compile_result_from_bytes(s->image);
  EXPECT_EQ(count_kind(probe.circuit, GateKind::Rz), 3u);
  ParamOffsets at;
  EXPECT_EQ(compile_result_to_bytes(probe, &at), s->image);
  EXPECT_TRUE(at.logical.empty());  // `logical` is the back-reference
  for (const auto& slot : s->slots) {
    EXPECT_NE(slot.term, 1u);  // the identity term emits nothing
    EXPECT_EQ(slot.logical_at, ParamOffsets::kNoParam);
    const auto gate = std::find(at.circuit.begin(), at.circuit.end(),
                                slot.circuit_at);
    ASSERT_NE(gate, at.circuit.end());
    EXPECT_EQ(probe.circuit.gate(gate - at.circuit.begin()).kind,
              GateKind::Rz);
  }
  // An identity term's coefficient is never read, not even a NaN.
  auto fresh = terms;
  fresh[0].coeff = -1.25;
  fresh[1].coeff = std::numeric_limits<double>::quiet_NaN();
  const auto bound = bind_skeleton(*s, fresh);
  ASSERT_TRUE(bound.has_value());
  EXPECT_TRUE(*bound == compiled_bytes(fresh, 3));
}

// Two rotations about one string sit next to each other and the Own peephole
// merges them, so one gate carries two terms' coefficients.
TEST(BindSkeleton, MergedRotationsMakeTheStructureUnbindable) {
  const std::vector<PauliTerm> terms = {{"ZI", 0.3}, {"ZI", 0.4}};
  EXPECT_FALSE(build_skeleton(terms, 2, {}).has_value());

  // Without the peephole the two rotations stay apart and bind.
  PhoenixOptions none;
  none.peephole = PeepholeLevel::None;
  const auto s = build_skeleton(terms, 2, none);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->slots.size(), 2u);
  const std::vector<PauliTerm> fresh = {{"ZI", -0.8}, {"ZI", 0.15}};
  const auto bound = bind_skeleton(*s, fresh);
  ASSERT_TRUE(bound.has_value());
  EXPECT_TRUE(*bound == compiled_bytes(fresh, 2, none));
}

TEST(BindSkeleton, OnlyBindableOptionsBuildASkeleton) {
  const std::vector<PauliTerm> terms = {{"XX", 0.3}, {"ZZ", 0.4}};
  EXPECT_TRUE(build_skeleton(terms, 2, {}).has_value());
  PhoenixOptions none;
  none.peephole = PeepholeLevel::None;
  EXPECT_TRUE(bindable_options(none));

  std::vector<std::pair<const char*, PhoenixOptions>> refused(5);
  refused[0].first = "hardware_aware";
  refused[0].second.hardware_aware = true;
  refused[1].first = "isa Su4";
  refused[1].second.isa = TwoQubitIsa::Su4;
  refused[2].first = "peephole O3";
  refused[2].second.peephole = PeepholeLevel::O3;
  refused[3].first = "resynth";
  refused[3].second.resynth = ResynthLevel::Logical;
  refused[4].first = "validation";
  refused[4].second.validation.level = ValidationLevel::Cheap;
  for (const auto& [name, opt] : refused) {
    EXPECT_FALSE(bindable_options(opt)) << name;
    EXPECT_FALSE(build_skeleton(terms, 2, opt).has_value()) << name;
  }
}

TEST(BindSkeleton, MismatchedTermCountDoesNotBind) {
  const std::vector<PauliTerm> terms = {{"XX", 0.3}, {"ZZ", 0.4}};
  const auto s = build_skeleton(terms, 2, {});
  ASSERT_TRUE(s.has_value());
  EXPECT_FALSE(bind_skeleton(*s, {{"XX", 0.3}}).has_value());
}

// --- param offsets -----------------------------------------------------------

/// Every recorded offset holds its gate's param bits, and every gate whose
/// param does not travel records kNoParam.
void expect_offsets_hold_params(const std::string& bytes, const Circuit& c,
                                const std::vector<std::size_t>& at) {
  ASSERT_EQ(at.size(), c.size());
  for (std::size_t k = 0; k < c.size(); ++k) {
    const Gate& g = c.gate(k);
    if (!gate_has_param(g.kind) && std::bit_cast<std::uint64_t>(g.param) == 0) {
      EXPECT_EQ(at[k], ParamOffsets::kNoParam) << "gate " << k;
      continue;
    }
    ASSERT_LE(at[k] + 8, bytes.size()) << "gate " << k;
    EXPECT_EQ(u64_at(bytes, at[k]), std::bit_cast<std::uint64_t>(g.param))
        << "gate " << k;
  }
}

// Qubits from 128 on take 2-byte varints, so no offset follows from a gate
// count; the encoder's own record must still land on every angle, and a bind
// of such a structure must still equal the compile.
TEST(BindOffsets, WideRegisterOffsetsHoldEveryParam) {
  constexpr std::size_t n = 130;
  auto label = [](std::initializer_list<std::pair<std::size_t, char>> ops) {
    std::string s(n, 'I');
    for (const auto& [q, p] : ops) s[q] = p;
    return s;
  };
  const std::vector<PauliTerm> terms = {
      {label({{129, 'Z'}}), 0.3},
      {label({{128, 'X'}, {129, 'X'}}), -0.7},
      {label({{1, 'Y'}, {128, 'Z'}}), 0.45},
      {label({{0, 'Z'}, {127, 'Y'}, {129, 'Z'}}), 1.1}};
  const CompileResult r = phoenix_compile(terms, n);
  ParamOffsets at;
  const std::string bytes = compile_result_to_bytes(r, &at);
  EXPECT_EQ(bytes, compile_result_to_bytes(r));  // recording changes nothing
  expect_offsets_hold_params(bytes, r.circuit, at.circuit);
  EXPECT_TRUE(at.logical.empty());
  std::size_t wide_rz = 0;
  for (const Gate& g : r.circuit.gates())
    if (g.kind == GateKind::Rz && g.q0 >= 128) ++wide_rz;
  EXPECT_GE(wide_rz, 2u);

  const auto s = build_skeleton(terms, n, {});
  ASSERT_TRUE(s.has_value());
  ASSERT_EQ(s->slots.size(), terms.size());
  auto fresh = terms;
  for (std::size_t i = 0; i < fresh.size(); ++i)
    fresh[i].coeff = -0.2 - 0.37 * static_cast<double>(i);
  const auto bound = bind_skeleton(*s, fresh);
  ASSERT_TRUE(bound.has_value());
  EXPECT_TRUE(*bound == compiled_bytes(fresh, n));
}

// A `logical` that differs from `circuit` is written out in full, and the
// encoder records its offsets too; nested Su4 sub-gates are not top-level
// gates and record nothing.
TEST(BindOffsets, WrittenOutLogicalRecordsBothCircuits) {
  CompileResult r;
  r.circuit = Circuit(200);
  r.circuit.append(Gate::rz(150, 0.25));
  r.circuit.append(Gate::cnot(3, 190));
  r.circuit.append(Gate::rz(7, -1.5));
  r.circuit.append(
      Gate::su4(2, 199, {Gate::rz(2, 0.5), Gate::cnot(2, 199)}));
  r.circuit.append(Gate::rz(199, 3.0));
  r.logical = Circuit(200);
  r.logical.append(Gate::h(160));
  r.logical.append(Gate::rz(160, -0.75));
  r.logical.append(Gate::cnot(160, 4));

  ParamOffsets at;
  const std::string bytes = compile_result_to_bytes(r, &at);
  expect_offsets_hold_params(bytes, r.circuit, at.circuit);
  expect_offsets_hold_params(bytes, r.logical, at.logical);
  EXPECT_LT(at.circuit.back(), at.logical[1]);

  // Writing at the offsets rewrites those angles and nothing else.
  std::string patched = bytes;
  store_u64(patched.data() + at.circuit[4],
            std::bit_cast<std::uint64_t>(-2.0));
  store_u64(patched.data() + at.logical[1],
            std::bit_cast<std::uint64_t>(0.125));
  CompileResult want = r;
  want.circuit = Circuit(200);
  for (std::size_t k = 0; k < r.circuit.size(); ++k) {
    Gate g = r.circuit.gate(k);
    if (k == 4) g.param = -2.0;
    want.circuit.append(g);
  }
  want.logical = Circuit(200);
  for (std::size_t k = 0; k < r.logical.size(); ++k) {
    Gate g = r.logical.gate(k);
    if (k == 1) g.param = 0.125;
    want.logical.append(g);
  }
  EXPECT_EQ(patched, compile_result_to_bytes(want));
}

// --- guards ------------------------------------------------------------------

/// LiH_frz_BK's skeleton and a fresh amplitude set with `coeff` in term 0.
struct GuardCase {
  CompiledSkeleton skeleton;
  std::vector<PauliTerm> terms;
  std::size_t num_qubits;

  std::size_t compiled_rz() const {
    return count_kind(phoenix_compile(terms, num_qubits).circuit,
                      GateKind::Rz);
  }
};

GuardCase guard_case(double coeff) {
  const UccsdBenchmark base = program("LiH_frz_BK").with_amplitudes(1);
  auto s = build_skeleton(base.terms, base.num_qubits, {});
  if (!s) throw std::logic_error("LiH_frz_BK must be bindable");
  GuardCase g{std::move(*s), program("LiH_frz_BK").with_amplitudes(2).terms,
              base.num_qubits};
  g.terms[0].coeff = coeff;
  return g;
}

TEST(BindGuards, NonFiniteCoefficientFallsBack) {
  for (const double c : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    EXPECT_FALSE(bound_angle(c, false).has_value()) << c;
    EXPECT_FALSE(bound_angle(c, true).has_value()) << c;
    const GuardCase g = guard_case(c);
    EXPECT_FALSE(bind_skeleton(g.skeleton, g.terms).has_value()) << c;
  }
}

// append_pauli_rotation drops |c| < 1e-15: the compile loses the term's Rz.
TEST(BindGuards, DroppedCoefficientFallsBack) {
  for (const double c : {1e-16, -1e-16, 0.0, -0.0}) {
    EXPECT_FALSE(bound_angle(c, false).has_value()) << c;
    const GuardCase g = guard_case(c);
    EXPECT_FALSE(bind_skeleton(g.skeleton, g.terms).has_value()) << c;
    EXPECT_LT(g.compiled_rz(), g.skeleton.slots.size()) << c;
  }
}

// append_z_rotation lowers Clifford angles to S, Z, S† or nothing: the
// compile trades the term's Rz for a discrete gate.
TEST(BindGuards, CliffordAngleFallsBack) {
  for (const double c : {M_PI / 4, -M_PI / 4, M_PI / 2, 3 * M_PI / 4, M_PI,
                         M_PI / 4 + 1e-12, 5 * M_PI / 4}) {
    EXPECT_FALSE(bound_angle(c, false).has_value()) << c;
    EXPECT_FALSE(bound_angle(c, true).has_value()) << c;
    const GuardCase g = guard_case(c);
    EXPECT_FALSE(bind_skeleton(g.skeleton, g.terms).has_value()) << c;
    EXPECT_LT(g.compiled_rz(), g.skeleton.slots.size()) << c;
  }
  // Just outside the tolerance the angle stays an Rz and binds.
  EXPECT_TRUE(bound_angle(M_PI / 4 + 1e-6, false).has_value());
}

// The bound angle is the compiler's own expression, including the wrap for
// |2c| > π.
TEST(BindGuards, BoundAngleIsTheCompilersExpression) {
  for (const double c : {0.3, -0.3, 1.7, -2.9, 7.25, -9.99}) {
    for (const bool negated : {false, true}) {
      const auto angle = bound_angle(c, negated);
      ASSERT_TRUE(angle.has_value());
      EXPECT_EQ(std::bit_cast<std::uint64_t>(*angle),
                std::bit_cast<std::uint64_t>(
                    wrap_angle(2.0 * (negated ? -c : c))));
    }
  }
}

// --- corpus: fresh amplitudes of the 14 programs -----------------------------

constexpr std::uint64_t kSeedsPerProgram = 15;  // 14 × 15 = 210 binds

class BindCorpus : public ::testing::TestWithParam<Program> {};

TEST_P(BindCorpus, FreshAmplitudesBindBitIdentically) {
  const Program& p = GetParam();
  const UccsdBenchmark base = p.with_amplitudes(1);
  const auto s = build_skeleton(base.terms, base.num_qubits, {});
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->slots.size(), base.terms.size());
  for (std::uint64_t seed = 100; seed < 100 + kSeedsPerProgram; ++seed) {
    const UccsdBenchmark fresh = p.with_amplitudes(seed);
    const auto bound = bind_skeleton(*s, fresh.terms);
    ASSERT_TRUE(bound.has_value()) << "seed " << seed;
    EXPECT_TRUE(*bound == compiled_bytes(fresh.terms, fresh.num_qubits))
        << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(BindUccsd, BindCorpus,
                         ::testing::ValuesIn(distinct_programs()),
                         [](const ::testing::TestParamInfo<Program>& info) {
                           return info.param.name;
                         });

// --- property: random Hamiltonians -------------------------------------------

/// A coefficient drawn to cross every guard now and then: exact Clifford
/// angles, values below the drop threshold, zeros, NaN and ±inf, and
/// otherwise uniform in [-10, 10] so 2c wraps.
double random_coeff(Rng& rng) {
  switch (rng.next_below(32)) {
    case 0: return static_cast<double>(rng.next_below(9)) * M_PI / 4 - M_PI;
    case 1: return rng.next_below(2) ? 1e-16 : -1e-16;
    case 2: return rng.next_below(2) ? 0.0 : -0.0;
    case 3: return std::numeric_limits<double>::quiet_NaN();
    case 4:
      return rng.next_below(2) ? std::numeric_limits<double>::infinity()
                               : -std::numeric_limits<double>::infinity();
    default: return rng.next_range(-10.0, 10.0);
  }
}

/// Whether a coefficient passes the guards; they do not depend on the
/// slot's sign, which this checks too.
bool regular(double c) {
  return bound_angle(c, false).has_value() && bound_angle(c, true).has_value();
}

TEST(BindProperty, RandomHamiltoniansBindBitIdenticallyOrFallBack) {
  constexpr int kStructures = 120;
  constexpr int kDraws = 4;
  std::size_t unbindable = 0, bound = 0, fallbacks = 0;
  for (int trial = 0; trial < kStructures; ++trial) {
    Rng rng(0xb1d0 + static_cast<std::uint64_t>(trial));
    const std::size_t n = 2 + rng.next_below(5);
    const std::size_t m = 1 + rng.next_below(10);
    std::vector<PauliTerm> terms;
    for (std::size_t i = 0; i < m; ++i) {
      const std::uint64_t kind = rng.next_below(8);
      if (kind == 0 && !terms.empty()) {  // duplicate string
        terms.push_back(terms[rng.next_below(terms.size())]);
      } else if (kind == 1) {  // identity string
        terms.emplace_back(std::string(n, 'I'), 0.5);
      } else {
        std::string label(n, 'I');
        for (char& ch : label) ch = "IXYZ"[rng.next_below(4)];
        terms.emplace_back(label, 0.5);
      }
    }
    PhoenixOptions opt;
    if (rng.next_below(3) == 0) opt.peephole = PeepholeLevel::None;

    const auto s = build_skeleton(terms, n, opt);
    if (!s) {
      ++unbindable;
      continue;
    }
    for (int d = 0; d < kDraws; ++d) {
      for (auto& t : terms) t.coeff = random_coeff(rng);
      const auto b = bind_skeleton(*s, terms);
      bool all_regular = true;
      for (const auto& slot : s->slots)
        all_regular = all_regular && regular(terms[slot.term].coeff);
      EXPECT_EQ(b.has_value(), all_regular) << "trial " << trial;
      if (!b) {
        ++fallbacks;
        continue;
      }
      ++bound;
      EXPECT_TRUE(*b == compiled_bytes(terms, n, opt))
          << "trial " << trial << " draw " << d;
    }
  }
  // The seeds reach all three outcomes.
  EXPECT_GT(unbindable, 0u);
  EXPECT_GT(bound, 100u);
  EXPECT_GT(fallbacks, 50u);
}

// --- the service's bind path -------------------------------------------------

CompileRequest lih(std::uint64_t seed) {
  return request_of(program("LiH_frz_BK").with_amplitudes(seed));
}

TEST(BindService, SecondMissBuildsTheSkeletonLaterMissesBindInline) {
  CompileService svc;
  const CompileRequest a = lih(1), b = lih(2), c = lih(3);

  EXPECT_TRUE(same_result(*svc.compile(a), reference(a)));
  ServiceStats s = svc.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.skeletons, 0u);

  // The second miss pays one (probe) compile and is bound from it.
  EXPECT_TRUE(same_result(*svc.compile(b), reference(b)));
  s = svc.stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.skeletons, 1u);
  EXPECT_EQ(s.bind_hits, 0u);

  // From the third on: bound on the submitting thread, a ready ticket.
  CompileService::Ticket t = svc.submit(c);
  EXPECT_TRUE(t.ready());
  EXPECT_TRUE(same_result(*t.get(), reference(c)));
  s = svc.stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.bind_hits, 1u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.bind_fallbacks, 0u);
  expect_request_identity(s);
}

TEST(BindService, BoundResultsStayOutOfTheCache) {
  CompileService svc;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) svc.compile(lih(seed));
  ServiceStats s = svc.stats();
  EXPECT_EQ(s.cache_entries, 1u);  // the first miss's compile only
  EXPECT_EQ(s.bind_hits, 2u);

  // An exact repeat of a bound request is bound again, not a cache hit.
  EXPECT_TRUE(same_result(*svc.compile(lih(4)), reference(lih(4))));
  s = svc.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.bind_hits, 3u);
  EXPECT_EQ(s.cache_entries, 1u);
  expect_request_identity(s);
}

TEST(BindService, ExpiredDeadlineFailsLikeAColdSubmit) {
  CompileService svc;
  svc.compile(lih(1));
  svc.compile(lih(2));
  ASSERT_EQ(svc.stats().skeletons, 1u);

  CompileRequest late = lih(3);
  late.deadline_ms = 0.0;
  CompileService::Ticket t = svc.submit(late);
  EXPECT_EQ(kind_of([&] { t.get(); }), Error::Kind::DeadlineExceeded);
  EXPECT_EQ(kind_of([&] { svc.compile(late); }),
            Error::Kind::DeadlineExceeded);
  EXPECT_EQ(svc.stats().bind_hits, 0u);
}

TEST(BindService, GuardMissCompilesAndCountsAFallback) {
  CompileService svc;
  svc.compile(lih(1));

  // At the second miss: the probe builds the skeleton, then the guard sends
  // the request to a compile of its own.
  CompileRequest clifford = lih(2);
  clifford.terms[0].coeff = M_PI / 4;
  EXPECT_TRUE(same_result(*svc.compile(clifford), reference(clifford)));
  ServiceStats s = svc.stats();
  EXPECT_EQ(s.skeletons, 1u);
  EXPECT_EQ(s.bind_fallbacks, 1u);

  // Inline: the guard fails on the submitting thread and the request
  // compiles as a miss.
  CompileRequest tiny = lih(3);
  tiny.terms[5].coeff = 1e-16;
  EXPECT_TRUE(same_result(*svc.compile(tiny), reference(tiny)));
  s = svc.stats();
  EXPECT_EQ(s.bind_fallbacks, 2u);
  EXPECT_EQ(s.bind_hits, 0u);
  EXPECT_EQ(s.misses, 3u);
  expect_request_identity(s);
}

TEST(BindService, CompileFnSeamDisablesBinding) {
  CompileService svc(ServiceOptions{}, [](const CompileRequest& req) {
    return phoenix_compile(req.terms, req.num_qubits, req.options);
  });
  for (std::uint64_t seed = 1; seed <= 3; ++seed) svc.compile(lih(seed));
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.bind_hits, 0u);
  EXPECT_EQ(s.skeletons, 0u);
}

TEST(BindService, NonBindableOptionsAlwaysCompile) {
  CompileService svc;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    CompileRequest req = lih(seed);
    req.options.peephole = PeepholeLevel::O3;
    EXPECT_TRUE(same_result(*svc.compile(req), reference(req)));
  }
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.bind_hits, 0u);
  EXPECT_EQ(s.skeletons, 0u);
}

// Reversing the terms keeps the fingerprint but compiles differently, so the
// reversed request must not be bound from the original's skeleton.
TEST(BindService, PermutedRequestIsItsOwnStructure) {
  const Program& p = program("LiH_frz_JW");
  CompileService svc;
  svc.compile(request_of(p.with_amplitudes(1)));
  svc.compile(request_of(p.with_amplitudes(2)));
  ASSERT_EQ(svc.stats().skeletons, 1u);

  CompileRequest reversed = request_of(p.with_amplitudes(3));
  std::reverse(reversed.terms.begin(), reversed.terms.end());
  const auto got = svc.compile(reversed);
  EXPECT_TRUE(same_result(*got, reference(reversed)));
  EXPECT_FALSE(same_result(*got, reference(request_of(p.with_amplitudes(3)))));
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.bind_hits, 0u);
  EXPECT_EQ(s.misses, 3u);
}

// 8 threads submit fresh amplitudes of 3 structures through both entry
// points: every result equals phoenix_compile, the counters add up, and the
// skeleton table settles at one skeleton per structure.
TEST(BindService, ConcurrentFreshAmplitudesMatchPhoenixCompile) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRounds = 4;
  const Program* programs[] = {&program("LiH_frz_BK"), &program("LiH_frz_JW"),
                               &program("NH_frz_JW")};
  auto request = [&](std::size_t t, std::size_t r) {
    const std::uint64_t seed = 1000 + 10 * t + r;
    return request_of(programs[(t + r) % 3]->with_amplitudes(seed));
  };
  std::map<std::pair<std::size_t, std::size_t>, CompileResult> want;
  for (std::size_t t = 0; t < kThreads; ++t)
    for (std::size_t r = 0; r < kRounds; ++r)
      want.emplace(std::make_pair(t, r), reference(request(t, r)));

  CompileService svc;
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (std::size_t r = 0; r < kRounds; ++r) {
        CompileRequest req = request(t, r);
        const auto got = (t + r) % 2 == 0 ? svc.compile(req)
                                          : svc.submit(std::move(req)).get();
        if (got == nullptr || !same_result(*got, want.at({t, r})))
          mismatches.fetch_add(1);
      }
    });
  for (auto& th : threads) th.join();

  EXPECT_EQ(mismatches.load(), 0u);
  const ServiceStats s = svc.stats();
  EXPECT_EQ(s.requests, kThreads * kRounds);
  expect_request_identity(s);
  EXPECT_EQ(s.skeletons, 3u);
  EXPECT_EQ(s.bind_fallbacks, 0u);
}

}  // namespace
}  // namespace phoenix
