// What `phoenix_compile` leaves besides the circuit: the `diagnostics`
// records and the top-level trace spans of five compiles, pinned value for
// value, and the byte identity of validated compiles (a result carries no
// timings).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "hamlib/qaoa.hpp"
#include "hamlib/uccsd.hpp"
#include "mapping/topology.hpp"
#include "phoenix/compiler.hpp"
#include "phoenix/serialize.hpp"

namespace phoenix {
namespace {

struct Record {
  std::string name;
  bool checked;
  std::string note;
};

/// Compile single-threaded (worker spans would otherwise reach depth 0 on
/// pool threads) with tracing on, and compare the records and the depth-0
/// span names in order.
void expect_stages(const std::vector<PauliTerm>& terms, std::size_t n,
                   PhoenixOptions opt, const std::vector<Record>& records,
                   const std::vector<std::string>& spans) {
  opt.num_threads = 1;
  opt.trace = true;
  const CompileResult res = phoenix_compile(terms, n, opt);
  ASSERT_EQ(res.diagnostics.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(res.diagnostics[i].name, records[i].name) << i;
    EXPECT_EQ(res.diagnostics[i].checked, records[i].checked) << i;
    EXPECT_EQ(res.diagnostics[i].note, records[i].note) << i;
  }
  if (!res.stats.enabled) GTEST_SKIP() << "trace compiled out";
  std::vector<std::string> top;
  for (const StageStats& s : res.stats.spans)
    if (s.depth == 0) top.push_back(s.name);
  EXPECT_EQ(top, spans);
}

UccsdBenchmark frozen(const Molecule& mol, FermionEncoding enc) {
  return generate_uccsd(mol, /*frozen=*/true, enc);
}

PhoenixOptions cheap() {
  PhoenixOptions opt;
  opt.validation.level = ValidationLevel::Cheap;
  return opt;
}

TEST(StageRecords, LogicalOwnParanoid) {
  const std::vector<PauliTerm> terms = {
      PauliTerm("XXYZII", 0.3),   PauliTerm("ZZXYII", 0.2),
      PauliTerm("YXZZII", -0.4),  PauliTerm("IIXXYY", 0.5),
      PauliTerm("IIYYXX", -0.25), PauliTerm("ZIIIIZ", 0.1),
      PauliTerm("XIZIYI", 0.15),  PauliTerm("IZZZII", 0.35)};
  PhoenixOptions opt;
  opt.validation.level = ValidationLevel::Paranoid;
  expect_stages(terms, 6, opt,
                {{"group", false, "5 groups"},
                 {"simplify", true, "9 epochs"},
                 {"order", false, ""},
                 {"peephole", false, ""},
                 {"validate", true, "pass"}},
                {"group", "simplify", "order", "peephole", "validate"});
}

TEST(StageRecords, LogicalO4Cheap) {
  const UccsdBenchmark b =
      frozen(Molecule::lih(), FermionEncoding::JordanWigner);
  PhoenixOptions opt = cheap();
  opt.resynth = ResynthLevel::Logical;
  expect_stages(
      b.terms, b.num_qubits, opt,
      {{"group", false, "24 groups"},
       {"simplify", false, "200 epochs"},
       {"order", false, ""},
       {"peephole", false, ""},
       {"resynth", false, "89 regions, 9 accepted, 2q 398->390"},
       {"validate", true, "pass"}},
      {"group", "simplify", "order", "peephole", "resynth", "validate"});
}

TEST(StageRecords, Su4Cheap) {
  const UccsdBenchmark b =
      frozen(Molecule::nh(), FermionEncoding::BravyiKitaev);
  PhoenixOptions opt = cheap();
  opt.isa = TwoQubitIsa::Su4;
  expect_stages(
      b.terms, b.num_qubits, opt,
      {{"group", false, "114 groups"},
       {"simplify", false, "539 epochs"},
       {"order", false, ""},
       {"peephole", false, ""},
       {"validate", true, "pass"}},
      {"group", "simplify", "order", "peephole", "rebase(su4)", "validate"});
}

// The routed O4 stage runs under a span named like its record, with the
// resynthesis pass's own "resynth" span nested inside.
TEST(StageRecords, HeavyHexRoutedO4Cheap) {
  const UccsdBenchmark b =
      frozen(Molecule::nh(), FermionEncoding::JordanWigner);
  const Graph device = topology_manhattan();
  PhoenixOptions opt = cheap();
  opt.peephole = PeepholeLevel::O3;
  opt.resynth = ResynthLevel::Routed;
  opt.hardware_aware = true;
  opt.coupling = &device;
  expect_stages(
      b.terms, b.num_qubits, opt,
      {{"group", false, "54 groups"},
       {"simplify", false, "489 epochs"},
       {"order", false, ""},
       {"peephole", false, ""},
       {"resynth", false, "236 regions, 14 accepted, 2q 904->891"},
       {"route(sabre)", false, "629 swaps"},
       {"peephole(post-route)", false, ""},
       {"resynth(routed)", false, "283 regions, 7 accepted, 2q 2746->2738"},
       {"validate", true, "pass"}},
      {"group", "simplify", "order", "peephole", "resynth", "route(sabre)",
       "peephole(post-route)", "resynth(routed)", "validate"});
}

TEST(StageRecords, HeavyHexQaoaCheap) {
  Rng rng(20);
  const Graph graph = random_regular_graph(10, 3, rng);
  const Graph device = topology_manhattan();
  PhoenixOptions opt = cheap();
  opt.hardware_aware = true;
  opt.coupling = &device;
  expect_stages(qaoa_cost_terms(graph, 0.35), 10, opt,
                {{"route(qaoa)", false, "13 swaps"}, {"validate", true, "pass"}},
                {"route(qaoa)", "validate"});
}

// Two Cheap-validated compiles of one request encode to the same bytes at
// any thread count: the cache's content address names one artifact.
TEST(StageRecords, ValidatedCompilesEncodeIdentically) {
  const UccsdBenchmark b =
      frozen(Molecule::lih(), FermionEncoding::BravyiKitaev);
  const Graph device = topology_manhattan();
  PhoenixOptions opt = cheap();
  opt.peephole = PeepholeLevel::O3;
  opt.resynth = ResynthLevel::Routed;
  opt.hardware_aware = true;
  opt.coupling = &device;
  std::string first;
  for (const std::size_t threads : {1, 4}) {
    opt.num_threads = threads;
    for (int run = 0; run < 2; ++run) {
      const std::string bytes =
          compile_result_to_bytes(phoenix_compile(b.terms, b.num_qubits, opt));
      if (first.empty()) {
        first = bytes;
        ASSERT_FALSE(compile_result_from_bytes(first).diagnostics.empty());
      }
      EXPECT_EQ(bytes, first) << threads << " threads, run " << run;
    }
  }
}

}  // namespace
}  // namespace phoenix
