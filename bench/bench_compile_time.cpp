// Compiler-throughput microbenchmarks (google-benchmark). The paper reports
// that PHOENIX compiles thousands-of-strings programs "in dozens of seconds"
// on a laptop (Python); this C++ implementation targets the same programs in
// single-digit seconds.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "baselines/paulihedral.hpp"
#include "baselines/tket.hpp"
#include "hamlib/qaoa.hpp"
#include "hamlib/uccsd.hpp"
#include "mapping/topology.hpp"
#include "phoenix/compiler.hpp"
#include "service/service.hpp"

namespace {

using namespace phoenix;

const UccsdBenchmark& suite_entry(std::size_t i) {
  static const std::vector<UccsdBenchmark> suite = uccsd_suite();
  return suite[i];
}

void BM_PhoenixLogical(benchmark::State& state) {
  const auto& b = suite_entry(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto res = phoenix_compile(b.terms, b.num_qubits);
    benchmark::DoNotOptimize(res.circuit.size());
  }
  state.SetLabel(b.name);
  state.counters["paulis"] = static_cast<double>(b.terms.size());
}

// Same compile with an armed (far-future deadline) cancellation token: the
// iteration time measures the cost of the poll/check sites threaded through
// every stage loop against BM_PhoenixLogical, and the `identical` counter is
// 1 when the armed-token compile's circuit matches the token-free compile
// gate-for-gate with exact parameters. CI's benchmark-smoke job asserts both:
// cancellation support must be free when unused and must never perturb the
// output.
void BM_PhoenixLogicalArmedToken(benchmark::State& state) {
  const auto& b = suite_entry(static_cast<std::size_t>(state.range(0)));
  CancelSource source(/*deadline_ms=*/3'600'000.0);  // one hour: never trips
  PhoenixOptions opt;
  opt.cancel = source.token();
  for (auto _ : state) {
    auto res = phoenix_compile(b.terms, b.num_qubits, opt);
    benchmark::DoNotOptimize(res.circuit.size());
  }
  const Circuit armed = phoenix_compile(b.terms, b.num_qubits, opt).circuit;
  const Circuit plain = phoenix_compile(b.terms, b.num_qubits).circuit;
  bool identical = armed.size() == plain.size();
  for (std::size_t i = 0; identical && i < armed.size(); ++i)
    identical = armed.gates()[i].same_as(plain.gates()[i], /*tol=*/0.0);
  state.SetLabel(b.name);
  state.counters["paulis"] = static_cast<double>(b.terms.size());
  state.counters["identical"] = identical ? 1.0 : 0.0;
}

// Flatten a stage name into a benchmark counter key ("route(sabre)" ->
// "stage_ms_route_sabre_") so stage breakdowns survive the JSON export.
std::string stage_counter_key(const std::string& stage) {
  std::string key = "stage_ms_";
  for (char ch : stage)
    key += std::isalnum(static_cast<unsigned char>(ch)) != 0 ? ch : '_';
  return key;
}

// Same compile with tracing on: the iteration time measures the enabled-probe
// overhead against BM_PhoenixLogical, and the depth-0 spans of the last
// iteration land in the JSON export as per-stage counters, so
// BENCH_compile_time.json records where the milliseconds go.
void BM_PhoenixLogicalTraced(benchmark::State& state) {
  const auto& b = suite_entry(static_cast<std::size_t>(state.range(0)));
  PhoenixOptions opt;
  opt.trace = true;
  CompileStats last;
  std::size_t two_q = 0, two_q_depth = 0;
  for (auto _ : state) {
    auto res = phoenix_compile(b.terms, b.num_qubits, opt);
    benchmark::DoNotOptimize(res.circuit.size());
    two_q = res.circuit.two_qubit_count();
    two_q_depth = res.circuit.two_qubit_depth();
    last = std::move(res.stats);
  }
  state.SetLabel(b.name);
  state.counters["paulis"] = static_cast<double>(b.terms.size());
  state.counters["two_qubit_gates"] = static_cast<double>(two_q);
  state.counters["two_qubit_depth"] = static_cast<double>(two_q_depth);
  std::map<std::string, double> stage_ms;
  for (const auto& s : last.spans)
    if (s.depth == 0) stage_ms[stage_counter_key(s.name)] += s.millis;
  for (const auto& [key, ms] : stage_ms) state.counters[key] = ms;
  state.counters["simplify_candidates"] =
      static_cast<double>(last.counter("simplify.candidates"));
  state.counters["frontier_hits"] =
      static_cast<double>(last.counter("simplify.frontier_hits"));
  state.counters["frontier_invalidated"] =
      static_cast<double>(last.counter("simplify.frontier_invalidated"));
  state.counters["starts_won"] =
      static_cast<double>(last.counter("simplify.starts_won"));
  state.counters["peephole_removed"] =
      static_cast<double>(last.counter("peephole.removed"));
}

void BM_PaulihedralLogical(benchmark::State& state) {
  const auto& b = suite_entry(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto c = paulihedral_compile(b.terms, b.num_qubits);
    benchmark::DoNotOptimize(c.size());
  }
  state.SetLabel(b.name);
}

void BM_TketLogical(benchmark::State& state) {
  const auto& b = suite_entry(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto c = tket_compile(b.terms, b.num_qubits);
    benchmark::DoNotOptimize(c.size());
  }
  state.SetLabel(b.name);
}

void BM_PhoenixHardwareAware(benchmark::State& state) {
  const auto& b = suite_entry(static_cast<std::size_t>(state.range(0)));
  const Graph device = topology_manhattan();
  PhoenixOptions opt;
  opt.hardware_aware = true;
  opt.coupling = &device;
  for (auto _ : state) {
    auto res = phoenix_compile(b.terms, b.num_qubits, opt);
    benchmark::DoNotOptimize(res.circuit.size());
  }
  state.SetLabel(b.name);
}

void BM_PhoenixQaoaHeavyHex(benchmark::State& state) {
  static const auto suite = qaoa_suite();
  const auto& b = suite[static_cast<std::size_t>(state.range(0))];
  const Graph device = topology_manhattan();
  PhoenixOptions opt;
  opt.hardware_aware = true;
  opt.coupling = &device;
  for (auto _ : state) {
    auto res = phoenix_compile(b.terms, b.num_qubits, opt);
    benchmark::DoNotOptimize(res.circuit.size());
  }
  state.SetLabel(b.name);
}

// Head-to-head of the two peephole engines on the same un-peepholed logical
// circuit: range(0) picks the suite entry, range(1) the engine (0 = Dag,
// 1 = Legacy). The iteration measures one optimize_o2 pass over a fresh copy
// of the base circuit (copy cost is identical across engines, so the delta
// is pure engine cost). The `identical` counter is 1 when the two engines'
// outputs match gate-for-gate with exact parameters — the bit-identity
// contract CI's benchmark-smoke job asserts.
void BM_PeepholeDagVsLegacy(benchmark::State& state) {
  const auto& b = suite_entry(static_cast<std::size_t>(state.range(0)));
  const PeepholeEngine engine =
      state.range(1) == 0 ? PeepholeEngine::Dag : PeepholeEngine::Legacy;
  PhoenixOptions opt;
  opt.peephole = PeepholeLevel::None;
  const Circuit base = phoenix_compile(b.terms, b.num_qubits, opt).logical;
  for (auto _ : state) {
    Circuit c = base;
    optimize_o2(c, engine);
    benchmark::DoNotOptimize(c.size());
  }
  Circuit dag = base;
  Circuit legacy = base;
  optimize_o2(dag, PeepholeEngine::Dag);
  optimize_o2(legacy, PeepholeEngine::Legacy);
  bool identical = dag.size() == legacy.size();
  for (std::size_t i = 0; identical && i < dag.size(); ++i)
    identical = dag.gates()[i].same_as(legacy.gates()[i], /*tol=*/0.0);
  state.SetLabel(b.name +
                 (engine == PeepholeEngine::Dag ? " [dag]" : " [legacy]"));
  state.counters["base_gates"] = static_cast<double>(base.size());
  state.counters["identical"] = identical ? 1.0 : 0.0;
}

// Candidate-evaluation strategies and the multi-start race head-to-head:
// range(0) picks the suite entry, range(1) the mode (0 = Frontier, the
// default; 1 = Rescan, the pre-frontier reference path; 2 = Frontier with a
// 4-way multi-start race). The `identical` counter is 1 when Frontier and
// Rescan compile bit-identical circuits at default options — the frontier's
// core contract; `multistart_ok` is 1 when the 4-start race never worsens
// the pre-peephole 2Q cost the race minimizes (simplify.two_qubit_gates,
// summed over groups — the final circuit's count is not monotone in it
// because peephole cancels across group boundaries) AND its output passes
// Cheap translation validation (a validation Fail throws). CI's
// benchmark-smoke job asserts both.
void BM_SimplifySearchModes(benchmark::State& state) {
  const auto& b = suite_entry(static_cast<std::size_t>(state.range(0)));
  PhoenixOptions opt;
  const char* label = " [frontier]";
  switch (state.range(1)) {
    case 1:
      opt.simplify.search = SimplifySearch::Rescan;
      label = " [rescan]";
      break;
    case 2:
      opt.simplify.num_starts = 4;
      label = " [starts=4]";
      break;
    default:
      break;
  }
  for (auto _ : state) {
    auto res = phoenix_compile(b.terms, b.num_qubits, opt);
    benchmark::DoNotOptimize(res.circuit.size());
  }
  const Circuit frontier = phoenix_compile(b.terms, b.num_qubits).circuit;
  PhoenixOptions rescan_opt;
  rescan_opt.simplify.search = SimplifySearch::Rescan;
  const Circuit rescan =
      phoenix_compile(b.terms, b.num_qubits, rescan_opt).circuit;
  bool identical = frontier.size() == rescan.size();
  for (std::size_t i = 0; identical && i < frontier.size(); ++i)
    identical = frontier.gates()[i].same_as(rescan.gates()[i], /*tol=*/0.0);
  PhoenixOptions single_traced;
  single_traced.trace = true;
  const auto base =
      phoenix_compile(b.terms, b.num_qubits, single_traced).stats.counter(
          "simplify.two_qubit_gates");
  PhoenixOptions multi;
  multi.simplify.num_starts = 4;
  multi.validation.level = ValidationLevel::Cheap;
  multi.trace = true;
  bool multistart_ok = false;
  try {
    const auto raced = phoenix_compile(b.terms, b.num_qubits, multi);
    multistart_ok = raced.stats.counter("simplify.two_qubit_gates") <= base;
  } catch (const std::exception&) {
    multistart_ok = false;  // validation Fail throws
  }
  state.SetLabel(b.name + label);
  state.counters["paulis"] = static_cast<double>(b.terms.size());
  state.counters["identical"] = identical ? 1.0 : 0.0;
  state.counters["multistart_ok"] = multistart_ok ? 1.0 : 0.0;
}

// Warm-vs-cold latency through the CompileService: the iteration time is the
// content-addressed cache-hit path (fingerprint + sharded-LRU lookup), and the
// cold compile for the same program is measured once up front and exported as
// the cold_ms counter, so BENCH_compile_time.json records both sides of the
// cache. warm_speedup = cold_ms / warm-hit time; the benchmark-smoke CI job
// requires its median to be >= 10x on the largest suite entry, CH2_cmplt_JW.
void BM_ServiceWarmVsCold(benchmark::State& state) {
  const auto& b = suite_entry(static_cast<std::size_t>(state.range(0)));
  ServiceOptions sopt;
  sopt.num_threads = 1;  // latency benchmark; the pool is idle anyway
  CompileService service(sopt);
  const auto cold_start = std::chrono::steady_clock::now();
  auto first = service.compile(b.terms, b.num_qubits);
  const double cold_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - cold_start)
                             .count();
  benchmark::DoNotOptimize(first);
  for (auto _ : state) {
    auto res = service.compile(b.terms, b.num_qubits);
    benchmark::DoNotOptimize(res->circuit.size());
  }
  state.SetLabel(b.name);
  state.counters["paulis"] = static_cast<double>(b.terms.size());
  state.counters["cold_ms"] = cold_ms;
  // kIsIterationInvariantRate reports value*iterations/elapsed = cold time
  // over mean warm-hit time, i.e. the warm speedup factor.
  state.counters["warm_speedup"] = benchmark::Counter(
      cold_ms / 1e3, benchmark::Counter::kIsIterationInvariantRate);
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  if (v.size() % 2 == 1) return *mid;
  return (*mid + *std::max_element(v.begin(), mid)) / 2.0;
}

// Median absolute deviation over the repetitions: the spread exported next
// to the median, robust to one noisy repetition where stddev is not.
double mad(const std::vector<double>& v) {
  const double m = median_of(v);
  std::vector<double> dev;
  dev.reserve(v.size());
  for (const double x : v) dev.push_back(std::abs(x - m));
  return median_of(std::move(dev));
}

void with_mad(benchmark::internal::Benchmark* b) {
  b->ComputeStatistics("mad", mad);
}

// Index 10 = LiH_frz_BK (small), 1 = CH2_cmplt_JW (largest, 1488 strings).
BENCHMARK(BM_PhoenixLogical)->Arg(10)->Arg(14)->Arg(1)->Apply(with_mad)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PhoenixLogicalArmedToken)
    ->Arg(10)
    ->Arg(14)
    ->Arg(1)
    ->Apply(with_mad)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PhoenixLogicalTraced)->Arg(10)->Arg(1)->Apply(with_mad)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PaulihedralLogical)->Arg(10)->Arg(1)->Apply(with_mad)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TketLogical)->Arg(10)->Arg(1)->Apply(with_mad)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PhoenixHardwareAware)->Arg(10)->Apply(with_mad)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PeepholeDagVsLegacy)
    ->Args({10, 0})
    ->Args({10, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Apply(with_mad)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PhoenixQaoaHeavyHex)->Arg(0)->Arg(5)->Apply(with_mad)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimplifySearchModes)
    ->Args({10, 0})
    ->Args({10, 1})
    ->Args({10, 2})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({1, 2})
    ->Apply(with_mad)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ServiceWarmVsCold)->Arg(10)->Arg(14)->Arg(1)->Apply(with_mad)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
