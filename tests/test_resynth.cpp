#include "resynth/resynth.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "circuit/synthesis.hpp"
#include "common/rng.hpp"
#include "hamlib/uccsd.hpp"
#include "mapping/topology.hpp"
#include "phoenix/compiler.hpp"
#include "sim/matrix.hpp"
#include "sim/statevector.hpp"

namespace phoenix {
namespace {

// Random Clifford circuit over the full gate vocabulary the extractor
// absorbs, including Clifford-angle rotations and SWAPs.
Circuit random_clifford(Rng& rng, std::size_t n, std::size_t len) {
  Circuit c(n);
  for (std::size_t i = 0; i < len; ++i) {
    const std::size_t q = rng.next_below(n);
    switch (rng.next_below(12)) {
      case 0: c.append(Gate::h(q)); break;
      case 1: c.append(Gate::s(q)); break;
      case 2: c.append(Gate::sdg(q)); break;
      case 3: c.append(Gate::x(q)); break;
      case 4: c.append(Gate::y(q)); break;
      case 5: c.append(Gate::z(q)); break;
      case 6: c.append(Gate::sqrt_x(q)); break;
      case 7:
        c.append(Gate::rz(q, (static_cast<double>(rng.next_below(4)) - 1.0) *
                                 (M_PI / 2.0)));
        break;
      default: {
        if (n < 2) {
          c.append(Gate::h(q));
          break;
        }
        std::size_t a = rng.next_below(n), b = rng.next_below(n);
        if (a == b) b = (a + 1) % n;
        switch (rng.next_below(3)) {
          case 0: c.append(Gate::cnot(a, b)); break;
          case 1: c.append(Gate::cz(a, b)); break;
          default: c.append(Gate::swap(a, b)); break;
        }
        break;
      }
    }
  }
  return c;
}

// Phase-insensitive unitary equivalence (tableaux only pin circuits down to
// a global phase).
void expect_equivalent(const Circuit& a, const Circuit& b) {
  ASSERT_LE(a.num_qubits(), 8u) << "unitary cross-check register too big";
  EXPECT_LT(infidelity(circuit_unitary(a), circuit_unitary(b)), 1e-9);
}

TEST(ResynthSynthesize, IdentityTableauGivesEmptyCircuit) {
  const Circuit out = synthesize_tableau(CliffordTableau(5));
  EXPECT_TRUE(out.empty());
}

TEST(ResynthSynthesize, RoundTripsRandomCliffordCircuits) {
  Rng rng(2025);
  for (std::size_t n : {1u, 2u, 3u, 5u, 6u}) {
    for (int trial = 0; trial < 12; ++trial) {
      const Circuit c = random_clifford(rng, n, 6 * n + 4);
      const CliffordTableau tab = CliffordTableau::from_circuit(c);
      const Circuit synth = synthesize_tableau(tab);
      // Exact tableau round trip (bit-identical rows and signs)…
      EXPECT_EQ(CliffordTableau::from_circuit(synth), tab);
      // …and exact unitary equivalence up to global phase.
      expect_equivalent(c, synth);
      // The synthesizer's output vocabulary excludes SWAP by contract.
      EXPECT_EQ(synth.count(GateKind::Swap), 0u);
    }
  }
}

TEST(ResynthSynthesize, RoundTripsTenQubitStatevectors) {
  // 2^10 unitaries are too bulky; spot-check action on random product-ish
  // states instead: |<synth ψ | orig ψ>| must be 1.
  Rng rng(77);
  const std::size_t n = 10;
  for (int trial = 0; trial < 4; ++trial) {
    const Circuit c = random_clifford(rng, n, 80);
    const Circuit synth =
        synthesize_tableau(CliffordTableau::from_circuit(c));
    Circuit prep(n);
    for (std::size_t q = 0; q < n; ++q) {
      if (rng.next_below(2)) prep.append(Gate::h(q));
      if (rng.next_below(2)) prep.append(Gate::rz(q, rng.next_double() * 3.0));
    }
    StateVector a(n), b(n);
    a.apply_circuit(prep);
    b.apply_circuit(prep);
    a.apply_circuit(c);
    b.apply_circuit(synth);
    EXPECT_NEAR(std::abs(a.inner_product(b)), 1.0, 1e-9);
  }
}

TEST(ResynthSynthesize, SignAndPhaseEdgeCases) {
  // S† alone (sign bookkeeping of the inverse quarter turn).
  {
    Circuit c(1);
    c.append(Gate::sdg(0));
    expect_equivalent(c, synthesize_tableau(CliffordTableau::from_circuit(c)));
  }
  // Y (double sign flip) and Y-adjacent combos.
  {
    Circuit c(2);
    c.append(Gate::y(0));
    c.append(Gate::sdg(1));
    c.append(Gate::y(1));
    expect_equivalent(c, synthesize_tableau(CliffordTableau::from_circuit(c)));
  }
  // SWAP chain: the permutation must round-trip without Swap gates.
  {
    Circuit c(4);
    c.append(Gate::swap(0, 1));
    c.append(Gate::swap(1, 2));
    c.append(Gate::swap(2, 3));
    const Circuit synth =
        synthesize_tableau(CliffordTableau::from_circuit(c));
    EXPECT_EQ(synth.count(GateKind::Swap), 0u);
    expect_equivalent(c, synth);
  }
  // Rz(π) = −iZ: Clifford-angle rotation handled up to global phase.
  {
    Circuit c(1);
    c.append(Gate::rz(0, M_PI));
    expect_equivalent(c, synthesize_tableau(CliffordTableau::from_circuit(c)));
  }
}

TEST(ResynthSynthesize, CouplingModeRoutesLongRangeCnots) {
  const Graph line = topology_line(5);
  Circuit c(5);
  c.append(Gate::cnot(0, 4));
  const CliffordTableau tab = CliffordTableau::from_circuit(c);
  const Circuit synth = synthesize_tableau(tab, &line);
  for (const Gate& g : synth.gates())
    if (g.is_two_qubit()) EXPECT_TRUE(line.has_edge(g.q0, g.q1));
  EXPECT_EQ(CliffordTableau::from_circuit(synth), tab);
  expect_equivalent(c, synth);
}

TEST(ResynthSynthesize, CouplingModeRoundTripsRandomCliffords) {
  Rng rng(404);
  const Graph grid = topology_grid(2, 3);
  for (int trial = 0; trial < 8; ++trial) {
    const Circuit c = random_clifford(rng, 6, 30);
    const CliffordTableau tab = CliffordTableau::from_circuit(c);
    const Circuit synth = synthesize_tableau(tab, &grid);
    for (const Gate& g : synth.gates())
      if (g.is_two_qubit()) EXPECT_TRUE(grid.has_edge(g.q0, g.q1));
    EXPECT_EQ(CliffordTableau::from_circuit(synth), tab);
    expect_equivalent(c, synth);
  }
}

TEST(ResynthExtract, ClassifiesCliffordGates) {
  EXPECT_TRUE(is_clifford_gate(Gate::h(0)));
  EXPECT_TRUE(is_clifford_gate(Gate::swap(0, 1)));
  EXPECT_TRUE(is_clifford_gate(Gate::rz(0, M_PI / 2)));
  EXPECT_TRUE(is_clifford_gate(Gate::rx(0, -M_PI)));
  EXPECT_TRUE(is_clifford_gate(Gate::ry(0, 2 * M_PI)));
  EXPECT_FALSE(is_clifford_gate(Gate::t(0)));
  EXPECT_FALSE(is_clifford_gate(Gate::rz(0, 0.3)));
  EXPECT_FALSE(is_clifford_gate(Gate::rz(0, M_PI / 4)));
}

TEST(ResynthExtract, AbsorbsAcrossCommutingBarrier) {
  // Rz on the CNOT's control commutes with it, so both CNOTs join one
  // region and annihilate; the rotation survives.
  Circuit c(2);
  c.append(Gate::cnot(1, 0));
  c.append(Gate::rz(1, 0.7));
  c.append(Gate::cnot(1, 0));
  const Circuit before = c;
  const ResynthStats st = resynthesize_clifford_regions(c);
  EXPECT_EQ(st.regions, 1u);
  EXPECT_EQ(st.accepted, 1u);
  EXPECT_EQ(c.two_qubit_count(), 0u);
  expect_equivalent(before, c);
}

TEST(ResynthExtract, SplitsAtNonCommutingBarrier) {
  // Rz on the CNOT's target blocks absorption: two separate regions, each
  // a lone CNOT, nothing to improve.
  Circuit c(2);
  c.append(Gate::cnot(0, 1));
  c.append(Gate::rz(1, 0.7));
  c.append(Gate::cnot(0, 1));
  const Circuit before = c;
  const ResynthStats st = resynthesize_clifford_regions(c);
  EXPECT_EQ(st.accepted, 0u);
  EXPECT_EQ(c.two_qubit_count(), 2u);
  expect_equivalent(before, c);
}

TEST(ResynthExtract, NeverIncreasesTwoQubitCountOnRandomMixes) {
  Rng rng(909);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 4;
    Circuit c(n);
    for (int i = 0; i < 60; ++i) {
      if (rng.next_below(4) == 0) {
        c.append(Gate::rz(rng.next_below(n), 0.1 + rng.next_double()));
      } else {
        c.append(random_clifford(rng, n, 1));
      }
    }
    const Circuit before = c;
    resynthesize_clifford_regions(c);
    EXPECT_LE(c.two_qubit_count(), before.two_qubit_count());
    expect_equivalent(before, c);
  }
}

TEST(ResynthExtract, CancellationAborts) {
  CancelSource src;
  src.request_cancel();
  ResynthOptions opt;
  opt.cancel = src.token();
  Rng rng(5);
  Circuit c = random_clifford(rng, 4, 64);
  try {
    resynthesize_clifford_regions(c, opt);
    FAIL() << "expected cancellation";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), Error::Kind::Cancelled);
    EXPECT_EQ(e.stage(), Stage::Resynth);
  }
}

// The uccsd_suite_small(10) entries by name, without generating their
// terms: gtest builds this list in every test process, and ctest starts one
// process per test. ResynthSuiteNames keeps it in step with the suite.
std::vector<std::string> small_suite_names() {
  return {"LiH_frz_BK", "LiH_frz_JW", "NH_frz_BK", "NH_frz_JW"};
}

TEST(ResynthSuiteNames, MatchTheSmallUccsdSuite) {
  std::vector<std::string> names;
  for (const auto& bench : uccsd_suite_small(10)) names.push_back(bench.name);
  EXPECT_EQ(names, small_suite_names());
}

// One instance per uccsd_suite_small(10) entry, so the entries run in
// parallel under ctest instead of as one long test.
class ResynthSmallSuite : public ::testing::TestWithParam<std::string> {};

TEST_P(ResynthSmallSuite, LogicalO4NeverWorseThanO3AndValidates) {
  const auto suite = uccsd_suite_small(10);
  const auto it = std::find_if(
      suite.begin(), suite.end(),
      [&](const UccsdBenchmark& b) { return b.name == GetParam(); });
  ASSERT_NE(it, suite.end());
  const UccsdBenchmark& bench = *it;

  PhoenixOptions o3;
  o3.peephole = PeepholeLevel::O3;
  o3.validation.level = ValidationLevel::Cheap;
  const CompileResult r3 = phoenix_compile(bench.terms, bench.num_qubits, o3);

  PhoenixOptions o4 = o3;
  o4.resynth = ResynthLevel::Logical;
  o4.validation.level = ValidationLevel::Paranoid;
  const CompileResult r4 = phoenix_compile(bench.terms, bench.num_qubits, o4);

  EXPECT_LE(r4.circuit.two_qubit_count(), r3.circuit.two_qubit_count())
      << bench.name;
  EXPECT_TRUE(r4.validation.passed()) << bench.name;
}

INSTANTIATE_TEST_SUITE_P(
    ResynthPipeline, ResynthSmallSuite,
    ::testing::ValuesIn(small_suite_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(ResynthPipeline, RoutedO4StaysOnCouplingAndValidates) {
  const auto suite = uccsd_suite_small(10);
  ASSERT_FALSE(suite.empty());
  const auto& bench = suite.front();
  const Graph grid = topology_grid(2, (bench.num_qubits + 1) / 2);

  PhoenixOptions opt;
  opt.peephole = PeepholeLevel::O3;
  opt.hardware_aware = true;
  opt.coupling = &grid;
  opt.resynth = ResynthLevel::Routed;
  opt.validation.level = ValidationLevel::Paranoid;
  const CompileResult res =
      phoenix_compile(bench.terms, bench.num_qubits, opt);
  EXPECT_TRUE(res.validation.passed());
  for (const Gate& g : res.circuit.gates())
    if (g.is_two_qubit()) EXPECT_TRUE(grid.has_edge(g.q0, g.q1));
}

TEST(ResynthPipeline, CliffordAngleCoefficientsLowerToDiscreteGatesAndValidate) {
  // A term with an exactly-Clifford coefficient (π/4 → gate angle π/2 → S)
  // must survive translation validation via consume-first matching.
  std::vector<PauliTerm> terms;
  terms.emplace_back("ZZI", M_PI / 4);
  terms.emplace_back("IXX", 0.37);
  terms.emplace_back("ZIZ", -M_PI / 2);

  PhoenixOptions opt;
  opt.peephole = PeepholeLevel::None;  // keep the discrete gates visible
  opt.validation.level = ValidationLevel::Paranoid;
  const CompileResult res = phoenix_compile(terms, 3, opt);
  EXPECT_TRUE(res.validation.passed());
  bool discrete = false;
  for (const Gate& g : res.circuit.gates())
    if (g.kind == GateKind::S || g.kind == GateKind::Sdg ||
        g.kind == GateKind::Z)
      discrete = true;
  EXPECT_TRUE(discrete);
}

TEST(ResynthOptions, DefaultTierIsOff) {
  PhoenixOptions a, b;
  b.resynth = ResynthLevel::Logical;
  EXPECT_EQ(a.resynth, ResynthLevel::Off);
  EXPECT_NE(static_cast<int>(a.resynth), static_cast<int>(b.resynth));
}

TEST(CircuitMetrics, TwoQubitCountAndDepthSemantics) {
  Circuit c(3);
  c.append(Gate::h(0));
  c.append(Gate::cnot(0, 1));
  c.append(Gate::cz(1, 2));
  c.append(Gate::swap(0, 2));   // counts as ONE 2Q gate at this level
  c.append(Gate::rz(1, 0.3));
  EXPECT_EQ(c.two_qubit_count(), 3u);
  EXPECT_EQ(c.two_qubit_count(), c.count_2q());
  // cnot(0,1) → cz(1,2) → swap(0,2) chain share qubits: depth 3.
  EXPECT_EQ(c.two_qubit_depth(), 3u);
  EXPECT_EQ(c.two_qubit_depth(), c.depth_2q());

  Circuit parallel2q(4);
  parallel2q.append(Gate::cnot(0, 1));
  parallel2q.append(Gate::cnot(2, 3));
  EXPECT_EQ(parallel2q.two_qubit_count(), 2u);
  EXPECT_EQ(parallel2q.two_qubit_depth(), 1u);
}

}  // namespace
}  // namespace phoenix
