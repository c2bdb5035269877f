// Wire-level benchmark of the phoenix compile service.
//
//   wirebench --workload vqa_iterate|warm_replay|heavyhex_checked
//             --seed N --seconds S --trace 0|1 [--trace-out DIR]
//
// Serves an in-process ServedServer on loopback TCP and drives it from one
// PooledClient in a closed loop: one connection, one request in flight, the
// next Submit written only after the previous Result arrived, as a VQA
// optimizer waits for each circuit before its next iteration. Submit
// payloads are generated from the seed and pre-encoded during set-up; the
// server sees only those bytes.
//
// A run is one untimed warm-up round (part of set-up) followed by a fixed
// number of timed rounds, grouped into blocks of at least kMinBlockRequests
// requests (see WorkloadSpec::nominal_round_s); the end-to-end timings are
// medians over the blocks. Set-up is timed once before the timed rounds and
// again after them, and setup_s is the median. Each round's replies are
// checked right after the round ends, while nothing is in flight, so the
// check never overlaps a timed request; the reference compiles and
// translation validation run after the last round.
//
// --trace 0 prints the end-to-end metrics. --trace 1 prints the per-layer
// metrics: client spans on every other round, the server's Stats frame
// before and after, and an in-process stage-by-stage replay of each
// program's first request (replay.hpp); the spans are written as
// chrome://tracing JSON into --trace-out. The last stdout line is the JSON
// result; the exit code is non-zero when an output check failed.

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "circuit/synthesis.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "phoenix/compiler.hpp"
#include "phoenix/serialize.hpp"
#include "replay.hpp"
#include "service/cache.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "sim/statevector.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace {

using namespace phoenix;
using namespace wirebench;
using Clock = std::chrono::steady_clock;

/// Set-ups per untraced run; setup_s is their median. The first one serves
/// the timed rounds, so peak_rss_mb sees the life of one server and not the
/// heap left behind by torn-down ones; the others follow the timed rounds.
constexpr std::size_t kSetups = 9;
/// Fewest requests per block of rounds: leaves >= 10 beyond p95 in every
/// block. The end-to-end timings are medians over the blocks of a run, so
/// a few seconds of host noise move one block, not the result.
constexpr std::size_t kMinBlockRequests = 200;
/// Stop starting rounds after this long, so a much slower program still
/// ends the run in time (the result then covers fewer rounds).
constexpr double kTimedCapS = 120.0;
/// Circuits up to this register size get the statevector cross-check.
constexpr std::size_t kSimMaxQubits = 10;

struct Args {
  Workload workload = Workload::VqaIterate;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out = ".";
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") {
      const auto w = parse_workload(val);
      if (!w) return std::nullopt;
      a.workload = *w;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::atof(val.c_str());
      have_seconds = a.seconds > 0.0;
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_seed || !have_seconds)
    return std::nullopt;
  return a;
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

bool same_gate(const Gate& a, const Gate& b) {
  if (a.kind != b.kind || a.q0 != b.q0 || a.sub.size() != b.sub.size())
    return false;
  if (a.is_two_qubit() && a.q1 != b.q1) return false;
  if (std::bit_cast<std::uint64_t>(a.param) !=
      std::bit_cast<std::uint64_t>(b.param))
    return false;
  for (std::size_t i = 0; i < a.sub.size(); ++i)
    if (!same_gate(a.sub[i], b.sub[i])) return false;
  return true;
}

bool same_circuit(const Circuit& a, const Circuit& b) {
  if (a.num_qubits() != b.num_qubits() || a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!same_gate(a.gate(i), b.gate(i))) return false;
  return true;
}

/// Exact statevector cross-check of a logical circuit against the
/// validator's realized term order, on two seeded entangled input states
/// (a unitary that differs beyond global phase fails on generic inputs).
bool sim_check(const Circuit& c, const std::vector<PauliTerm>& order,
               std::uint64_t seed) {
  const std::size_t n = c.num_qubits();
  Circuit ref(n);
  for (const PauliTerm& t : order) append_pauli_rotation(ref, t);
  for (std::uint64_t k = 0; k < 2; ++k) {
    Rng rng(seed * 2 + k);
    Circuit prep(n);
    for (int layer = 0; layer < 2; ++layer) {
      for (std::size_t q = 0; q < n; ++q) {
        prep.append(Gate::ry(q, rng.next_range(0.1, 3.0)));
        prep.append(Gate::rz(q, rng.next_range(0.1, 3.0)));
      }
      for (std::size_t q = 0; q + 1 < n; ++q) prep.append(Gate::cnot(q, q + 1));
    }
    StateVector a(n), b(n);
    a.apply_circuit(prep);
    a.apply_circuit(c);
    b.apply_circuit(prep);
    b.apply_circuit(ref);
    if (1.0 - std::norm(a.inner_product(b)) > 1e-9) return false;
  }
  return true;
}

// ---- one served instance --------------------------------------------------

struct Served {
  std::unique_ptr<ServedServer> server;
  std::unique_ptr<PooledClient> client;
  /// warm_replay: the first (cold) reply of each program.
  std::vector<std::string> first_reply;
  std::set<std::uint64_t> seen_payloads, seen_structures;

  Served() = default;
  Served(const Served&) = delete;
  Served& operator=(const Served&) = delete;
  ~Served() {
    client.reset();  // joins the client's reader before the server stops
    if (server) server->stop();
  }
};

struct Outcome {
  double latency_ms = 0.0;
  bool got_result = false;
  bool ok = false;  ///< passed the output check
  std::string body;
  std::string error;
};

Outcome run_request(PooledClient& client, const Request& req, Spans* spans,
                    std::uint64_t request_id) {
  Outcome o;
  Spans::Scope root(spans, "request", 0, request_id);
  const auto t0 = Clock::now();
  try {
    PooledClient::Handle h;
    {
      Spans::Scope s(spans, "client.submit", root.id(), request_id);
      h = client.submit_payload(*req.payload);
    }
    {
      Spans::Scope s(spans, "client.ack", root.id(), request_id);
      h.ack();
    }
    {
      Spans::Scope s(spans, "client.result", root.id(), request_id);
      o.body = h.get();
    }
    o.got_result = true;
  } catch (const std::exception& e) {
    o.error = e.what();
  }
  o.latency_ms = ms_between(t0, Clock::now());
  return o;
}

/// Start a server and client and play the untimed warm-up round: on
/// warm_replay a cold pass over every program first, so the warm-up round
/// turns them into cache hits that fill the wire reply memo.
std::unique_ptr<Served> set_up(const WorkloadSpec& spec,
                               const std::vector<Request>& warm_up) {
  auto owned = std::make_unique<Served>();
  Served& s = *owned;

  ServerOptions sopt;
  sopt.enable_tcp = true;
  sopt.tcp_host = "127.0.0.1";
  sopt.tcp_port = 0;
  // Service workers plus the shared simplify pool never exceed the cores.
  const std::size_t cores =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t pool = ThreadPool::shared().num_workers();
  sopt.service.num_threads = cores > pool ? cores - pool : 1;
  s.server = std::make_unique<ServedServer>(std::move(sopt));
  s.server->start();
  PooledClientOptions copt;
  copt.connections = 1;
  s.client = std::make_unique<PooledClient>(
      Endpoint::tcp("127.0.0.1", s.server->tcp_port()), copt);

  auto play = [&](const Request& req) {
    Outcome o = run_request(*s.client, req, nullptr, 0);
    if (!o.got_result)
      std::fprintf(stderr, "wirebench: set-up request (%s) failed: %s\n",
                   spec.programs[req.program].name.c_str(), o.error.c_str());
    s.seen_payloads.insert(req.exact);
    s.seen_structures.insert(req.structure);
    return o;
  };
  if (!spec.fresh) {
    s.first_reply.resize(spec.programs.size());
    std::vector<bool> done(spec.programs.size(), false);
    for (const Request& req : warm_up)
      if (!done[req.program]) {
        Outcome o = play(req);
        if (!o.got_result)
          throw std::runtime_error("cold pass of a warm program failed");
        s.first_reply[req.program] = std::move(o.body);
        done[req.program] = true;
      }
  }
  for (const Request& req : warm_up) play(req);
  return owned;
}

// ---- metrics output ---------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

// ---- the timed rounds ------------------------------------------------------

/// The first timed request of one program, kept for the reference check.
struct FirstRequest {
  const Request* request = nullptr;
  std::string body;
  double latency_ms = 0.0;
  std::size_t round = 0, index = 0;  ///< position, to mark its outcome
};

/// Everything the timed rounds record (rounds are numbered from 1).
struct TimedRun {
  std::vector<double> latencies;  ///< in request order
  std::vector<std::vector<double>> program_latencies;
  std::vector<double> round_wall_s, round_cpu_s, round_completed;
  std::vector<bool> round_traced;
  std::vector<std::vector<bool>> ok;  ///< [round][slot]: passed the check
  std::vector<std::optional<FirstRequest>> first;  ///< per program
  std::size_t attempted = 0, exact_repeats = 0, structure_repeats = 0;
  std::size_t two_q_gates = 0, two_q_depth = 0;  ///< over round 1

  std::size_t rounds_run() const { return round_wall_s.size(); }
};

/// Play rounds 1.. closed-loop. With `spans`, every other round records
/// client spans. After each round, with nothing in flight, every reply must
/// decode (cold) or equal the first reply to that request (warm).
TimedRun run_timed_rounds(const WorkloadSpec& spec,
                          const std::vector<std::vector<Request>>& rounds,
                          Served& served, Spans* spans) {
  TimedRun t;
  t.program_latencies.resize(spec.programs.size());
  t.ok.resize(rounds.size());
  t.first.resize(spec.programs.size());
  // Per-program 2Q figures of the fixed warm replies.
  std::vector<std::pair<std::size_t, std::size_t>> warm_2q(spec.programs.size());
  if (!spec.fresh)
    for (std::size_t p = 0; p < spec.programs.size(); ++p) {
      const CompileResult r = compile_result_from_bytes(served.first_reply[p]);
      warm_2q[p] = {r.circuit.two_qubit_count(), r.circuit.two_qubit_depth()};
    }

  std::uint64_t request_id = 1;
  const auto start = Clock::now();
  for (std::size_t r = 1; r < rounds.size(); ++r) {
    if (ms_between(start, Clock::now()) / 1000.0 > kTimedCapS) {
      std::fprintf(stderr, "wirebench: time cap reached after %zu rounds\n",
                   t.rounds_run());
      break;
    }
    const std::vector<Request>& round = rounds[r];
    const bool traced = spans != nullptr && r % 2 == 0;
    std::vector<Outcome> out(round.size());

    const double cpu0 = cpu_seconds();
    const auto w0 = Clock::now();
    for (std::size_t i = 0; i < round.size(); ++i)
      out[i] = run_request(*served.client, round[i], traced ? spans : nullptr,
                           request_id++);
    t.round_wall_s.push_back(ms_between(w0, Clock::now()) / 1000.0);
    t.round_cpu_s.push_back(cpu_seconds() - cpu0);
    t.round_traced.push_back(traced);

    std::vector<std::pair<std::size_t, std::size_t>> round_2q(round.size());
    ThreadPool::shared().parallel_for(round.size(), [&](std::size_t i) {
      Outcome& o = out[i];
      if (!o.got_result) return;
      if (!spec.fresh) {
        o.ok = o.body == served.first_reply[round[i].program];
        return;
      }
      try {
        const CompileResult res = compile_result_from_bytes(o.body);
        round_2q[i] = {res.circuit.two_qubit_count(),
                       res.circuit.two_qubit_depth()};
        o.ok = true;
      } catch (const std::exception& e) {
        o.error = e.what();
      }
    });

    t.ok[r].resize(round.size());
    t.round_completed.push_back(0.0);
    for (std::size_t i = 0; i < round.size(); ++i) {
      Outcome& o = out[i];
      const Request& req = round[i];
      ++t.attempted;
      t.round_completed.back() += o.got_result ? 1.0 : 0.0;
      t.ok[r][i] = o.ok;
      if (!o.ok)
        std::fprintf(stderr, "wirebench: round %zu request %zu (%s) failed: %s\n",
                     r, i, spec.programs[req.program].name.c_str(),
                     o.error.empty() ? "reply differs" : o.error.c_str());
      t.latencies.push_back(o.latency_ms);
      t.program_latencies[req.program].push_back(o.latency_ms);
      if (r == 1) {
        const auto fig = spec.fresh ? round_2q[i] : warm_2q[req.program];
        t.two_q_gates += fig.first;
        t.two_q_depth += fig.second;
      }
      t.exact_repeats += served.seen_payloads.insert(req.exact).second ? 0 : 1;
      t.structure_repeats +=
          served.seen_structures.insert(req.structure).second ? 0 : 1;
      if (!t.first[req.program] && o.got_result)
        t.first[req.program] =
            FirstRequest{&req, std::move(o.body), o.latency_ms, r, i};
    }
  }
  return t;
}

/// End-to-end timings as medians over blocks of `block_rounds` rounds, each
/// block holding the same multiset of programs.
struct BlockMedians {
  double rps = 0.0, p50_ms = 0.0, p95_ms = 0.0, cpu_ms = 0.0;
  std::size_t blocks = 0;
  std::size_t beyond_p95 = 0;  ///< fewest requests beyond p95 in a block
};

BlockMedians block_medians(const TimedRun& t, std::size_t per_round,
                           std::size_t block_rounds) {
  std::vector<double> rps, p50, p95, cpu_ms;
  BlockMedians m;
  m.blocks = std::max<std::size_t>(1, t.rounds_run() / block_rounds);
  m.beyond_p95 = t.latencies.size();
  for (std::size_t b = 0; b < m.blocks; ++b) {
    const std::size_t r0 = b * block_rounds;
    const std::size_t r1 = std::min(t.rounds_run(), r0 + block_rounds);
    double wall = 0.0, cpu = 0.0, done = 0.0;
    for (std::size_t r = r0; r < r1; ++r) {
      wall += t.round_wall_s[r];
      cpu += t.round_cpu_s[r];
      done += t.round_completed[r];
    }
    const std::vector<double> lat(t.latencies.begin() + r0 * per_round,
                                  t.latencies.begin() + r1 * per_round);
    rps.push_back(done / wall);
    p50.push_back(percentile(lat, 0.50));
    p95.push_back(percentile(lat, 0.95));
    cpu_ms.push_back(1000.0 * cpu / std::max(1.0, done));
    m.beyond_p95 = std::min(
        m.beyond_p95,
        lat.size() - static_cast<std::size_t>(std::ceil(0.95 * lat.size())));
  }
  m.rps = median(rps);
  m.p50_ms = median(p50);
  m.p95_ms = median(p95);
  m.cpu_ms = median(cpu_ms);
  return m;
}

// ---- the output check -------------------------------------------------------

struct ProgramCheck {
  bool checked = false;
  bool matched = false;
  ValidationStatus status = ValidationStatus::Inconclusive;
  bool sim_ok = true;
  double compile_ms = 0.0;  ///< untraced in-process phoenix_compile
  std::shared_ptr<const CompileResult> reference;
  std::string detail;
  bool passed() const {
    return matched && status != ValidationStatus::Fail && sim_ok;
  }
};

CompileRequest decode_request(const Request& r) {
  int priority = 0;
  return compile_request_from_bytes(*r.payload, priority);
}

/// Reference check of each program's first timed reply: the same payload
/// compiled in-process must give the same circuit (gates with exact
/// parameter bits), layouts and swap count, and the reply's circuit must
/// pass Cheap translation validation plus, up to kSimMaxQubits, the
/// statevector cross-check. A failing reply is marked in `t.ok`.
std::vector<ProgramCheck> check_programs(const WorkloadSpec& spec, TimedRun& t,
                                         std::uint64_t seed) {
  std::vector<ProgramCheck> checks(spec.programs.size());
  std::vector<std::size_t> programs;
  for (std::size_t p = 0; p < spec.programs.size(); ++p)
    if (t.first[p]) programs.push_back(p);
  for (std::size_t p : programs) {  // serial, so compile_ms is uncontended
    const CompileRequest req = decode_request(*t.first[p]->request);
    PhoenixOptions opt = req.options;
    opt.coupling = req.coupling_graph();
    const auto t0 = Clock::now();
    checks[p].reference = std::make_shared<const CompileResult>(
        phoenix_compile(req.terms, req.num_qubits, opt));
    checks[p].compile_ms = ms_between(t0, Clock::now());
    checks[p].checked = true;
  }
  ThreadPool::shared().parallel_for(programs.size(), [&](std::size_t k) {
    const std::size_t p = programs[k];
    ProgramCheck& c = checks[p];
    try {
      const CompileRequest req = decode_request(*t.first[p]->request);
      const CompileResult got = compile_result_from_bytes(t.first[p]->body);
      const CompileResult& ref = *c.reference;
      c.matched = same_circuit(got.circuit, ref.circuit) &&
                  got.initial_layout == ref.initial_layout &&
                  got.final_layout == ref.final_layout &&
                  got.num_swaps == ref.num_swaps;
      if (!c.matched) c.detail = "circuit differs from in-process compile";
      ValidationOptions vopt;
      vopt.level = ValidationLevel::Cheap;
      const ValidationReport rep = validate_translation(
          got.circuit, req.terms, req.num_qubits,
          {got.initial_layout, got.final_layout}, vopt);
      c.status = rep.status;
      if (rep.status == ValidationStatus::Fail) c.detail = rep.message;
      if (got.circuit.num_qubits() <= kSimMaxQubits &&
          rep.status == ValidationStatus::Pass) {
        c.sim_ok = sim_check(got.circuit, rep.realized_order, seed + p);
        if (!c.sim_ok) c.detail = "statevector cross-check failed";
      }
    } catch (const std::exception& e) {
      c.matched = false;
      c.detail = e.what();
    }
  });
  for (std::size_t p : programs)
    if (!checks[p].passed()) {
      t.ok[t.first[p]->round][t.first[p]->index] = false;
      std::fprintf(stderr, "wirebench: %s: %s\n", spec.programs[p].name.c_str(),
                   checks[p].detail.c_str());
    }
  return checks;
}

// ---- the traced run's per-layer metrics ---------------------------------------

struct Counters {
  std::map<std::string, std::uint64_t> wire;  ///< the server's Stats frame
  ServiceStats service;
  ClientStats client;
};

Counters read_counters(Served& s, Spans* spans) {
  Counters c;
  {
    Spans::Scope span(spans, "client.stats", 0, 0);
    for (const auto& [k, v] : s.client->server_stats()) c.wire[k] = v;
  }
  c.service = s.server->service().stats();
  c.client = s.client->stats();
  return c;
}

/// Mean put and get time of the disk tier, against a scratch directory.
std::pair<double, double> time_disk_tier(
    const std::filesystem::path& dir,
    const std::vector<std::shared_ptr<const CompileResult>>& results) {
  std::filesystem::remove_all(dir);
  CacheOptions copt;
  copt.disk_dir = dir.string();
  double put_ms = 0.0, get_ms = 0.0;
  {
    CompileCache cache(copt);
    for (std::size_t k = 0; k < results.size(); ++k) {
      const auto t0 = Clock::now();
      cache.put(Digest128{k + 1, 0}, results[k]);
      put_ms += ms_between(t0, Clock::now());
    }
  }
  CompileCache cold(copt);  // empty memory tier: every get reads the disk
  for (std::size_t k = 0; k < results.size(); ++k) {
    const auto t0 = Clock::now();
    if (cold.get(Digest128{k + 1, 0}) == nullptr)
      throw std::runtime_error("disk cache lost an entry");
    get_ms += ms_between(t0, Clock::now());
  }
  std::filesystem::remove_all(dir);
  const double n = std::max<double>(1.0, static_cast<double>(results.size()));
  return {put_ms / n, get_ms / n};
}

std::vector<Metric> per_layer_metrics(const Args& args,
                                      const WorkloadSpec& spec,
                                      const TimedRun& t,
                                      const std::vector<ProgramCheck>& checks,
                                      const Counters& before,
                                      const Counters& after,
                                      std::size_t beyond_p95, Spans& spans) {
  constexpr std::uint64_t kReplayBase = 1ull << 40;
  double programs = 0, stale = 0, groups = 0, epochs = 0, removed = 0,
         regions = 0, accepted = 0, swaps = 0, result_bytes = 0, saved = 0,
         compile_ms = 0, serving_overhead = 0, inconclusive = 0;
  std::vector<std::shared_ptr<const CompileResult>> references;
  for (std::size_t p = 0; p < spec.programs.size(); ++p) {
    if (!checks[p].checked) continue;
    const FirstRequest& first = *t.first[p];
    const CompileResult& ref = *checks[p].reference;
    const ReplayCounts rc =
        replay_request(*first.request->payload, spans, kReplayBase + p);
    if (!same_circuit(rc.circuit, ref.circuit)) {
      ++stale;
      std::fprintf(stderr, "wirebench: stale layer table: replay of %s "
                           "differs from phoenix_compile\n",
                   spec.programs[p].name.c_str());
    }
    programs += 1;
    groups += static_cast<double>(rc.groups);
    epochs += static_cast<double>(rc.simplify_epochs);
    removed += static_cast<double>(rc.gates_removed);
    regions += static_cast<double>(rc.resynth_regions);
    accepted += static_cast<double>(rc.resynth_accepted);
    swaps += static_cast<double>(rc.swaps);
    result_bytes += static_cast<double>(first.body.size());
    compile_ms += checks[p].compile_ms;
    serving_overhead += first.latency_ms - checks[p].compile_ms;
    inconclusive += checks[p].status == ValidationStatus::Inconclusive;
    references.push_back(checks[p].reference);

    const CompileRequest req = decode_request(*first.request);
    if (req.options.resynth != ResynthLevel::Off) {
      PhoenixOptions off = req.options;
      off.coupling = req.coupling_graph();
      off.resynth = ResynthLevel::Off;
      off.validation.level = ValidationLevel::Off;
      const CompileResult r = phoenix_compile(req.terms, req.num_qubits, off);
      saved += static_cast<double>(r.circuit.two_qubit_count()) -
               static_cast<double>(ref.circuit.two_qubit_count());
    }
  }
  const auto [put_ms, get_ms] = time_disk_tier(
      std::filesystem::path(args.trace_out) / "disk-cache-scratch", references);

  // Layer self times: replay spans on the request's thread (pool-worker
  // spans run concurrently with their parent and are not added again), and
  // the client spans of the traced rounds.
  const std::vector<Spans::Span> all = spans.spans();
  const std::map<std::uint64_t, double> self = Spans::self_ms(all);
  std::map<std::uint64_t, std::size_t> root_thread;
  for (const auto& s : all)
    if (s.name == "replay") root_thread[s.request] = s.thread;
  std::map<std::string, double> layer_ms;
  double replay_total = 0.0, unattributed = 0.0, client_requests = 0.0;
  for (const auto& s : all) {
    if (s.request >= kReplayBase) {
      if (s.thread != root_thread[s.request]) continue;
      if (s.name == "replay") {
        replay_total += s.dur_ms();
        unattributed += self.at(s.id);
      } else {
        layer_ms[Spans::layer(s.name)] += self.at(s.id);
      }
    } else if (s.name == "request") {
      client_requests += 1.0;
    } else if (s.request != 0) {
      layer_ms[s.name] += s.dur_ms();
    }
  }
  double attributed = 0.0;
  for (const auto& [name, ms] : layer_ms)
    if (name.rfind("client.", 0) != 0) attributed += ms;
  std::printf("layer table: %.3f ms attributed + %.3f ms unattributed = "
              "%.3f ms of %.3f ms replayed over %.0f programs\n",
              attributed, unattributed, attributed + unattributed,
              replay_total, programs);

  const std::filesystem::path trace_file =
      std::filesystem::path(args.trace_out) /
      (std::string(workload_name(args.workload)) + "-seed" +
       std::to_string(args.seed) + ".trace.json");
  spans.write_chrome_json(trace_file.string());
  std::printf("chrome://tracing file: %s\n", trace_file.string().c_str());

  auto delta = [&](const char* key) {
    return static_cast<double>(after.wire.at(key) - before.wire.at(key));
  };
  const double submits = std::max(1.0, delta("net.submits"));
  double wall[2] = {0, 0}, done[2] = {0, 0};  // [untraced, traced]
  for (std::size_t r = 0; r < t.rounds_run(); ++r) {
    wall[t.round_traced[r]] += t.round_wall_s[r];
    done[t.round_traced[r]] += t.round_completed[r];
  }
  const double rps_untraced = done[0] / std::max(1e-9, wall[0]);
  const double rps_traced = done[1] / std::max(1e-9, wall[1]);
  auto per_program = [&](double v) { return programs > 0 ? v / programs : 0.0; };
  auto per_request = [&](const char* span) {
    return client_requests > 0 ? layer_ms[span] / client_requests : 0.0;
  };
  const double attempted = static_cast<double>(t.attempted);

  return {
      {"hamlib.group_ms", per_program(layer_ms["hamlib.group"]), "ms"},
      {"hamlib.groups", per_program(groups), "count"},
      {"phoenix.simplify_ms", per_program(layer_ms["phoenix.simplify"]), "ms"},
      {"phoenix.simplify_epochs", per_program(epochs), "count"},
      {"phoenix.order_ms", per_program(layer_ms["phoenix.order"]), "ms"},
      {"transpile.peephole_ms", per_program(layer_ms["transpile.peephole"]),
       "ms"},
      {"transpile.gates_removed", per_program(removed), "count"},
      {"resynth_ms", per_program(layer_ms["resynth"]), "ms"},
      {"resynth.regions", per_program(regions), "count"},
      {"resynth.accept_ratio", regions > 0 ? accepted / regions : 0.0, "ratio"},
      {"resynth.two_qubit_saved", per_program(saved), "count"},
      {"mapping.route_ms", per_program(layer_ms["mapping.route"]), "ms"},
      {"mapping.swaps", per_program(swaps), "count"},
      {"verify_ms", per_program(layer_ms["verify"]), "ms"},
      {"verify.inconclusive", inconclusive, "count"},
      {"phoenix.serialize_ms", per_program(layer_ms["phoenix.serialize"]), "ms"},
      {"phoenix.result_bytes", per_program(result_bytes), "bytes"},
      {"service.fingerprint_ms", per_program(layer_ms["service.fingerprint"]),
       "ms"},
      {"service.request_decode_ms",
       per_program(layer_ms["service.request_decode"]), "ms"},
      {"service.hit_ratio",
       1.0 - static_cast<double>(after.service.misses - before.service.misses) /
                 submits,
       "ratio"},
      {"service.evictions",
       static_cast<double>(after.service.evictions - before.service.evictions),
       "count"},
      {"service.cache_mb",
       static_cast<double>(after.service.cache_bytes) / (1024.0 * 1024.0), "MB"},
      {"service.cache.disk_put_ms", put_ms, "ms"},
      {"service.cache.disk_get_ms", get_ms, "ms"},
      {"net.wire_hit_ratio", delta("net.wire_hits") / submits, "ratio"},
      {"net.bytes_out_per_request", delta("net.bytes_out") / submits, "bytes"},
      {"net.serving_overhead_ms", per_program(serving_overhead), "ms"},
      {"client.requests",
       static_cast<double>(after.client.submits - before.client.submits),
       "count"},
      {"client.io_errors",
       static_cast<double>(after.client.io_errors - before.client.io_errors),
       "count"},
      {"client.submit_ms", per_request("client.submit"), "ms"},
      {"client.ack_wait_ms", per_request("client.ack"), "ms"},
      {"client.result_wait_ms", per_request("client.result"), "ms"},
      {"compile.phoenix_compile_ms", per_program(compile_ms), "ms"},
      {"compile.unattributed_ms", per_program(unattributed), "ms"},
      {"replay.total_ms", per_program(replay_total), "ms"},
      {"replay.stale_programs", stale, "count"},
      {"trace.overhead_pct",
       rps_untraced > 0 ? 100.0 * (1.0 - rps_traced / rps_untraced) : 0.0, "%"},
      {"share.exact_repeat", static_cast<double>(t.exact_repeats) / attempted,
       "ratio"},
      {"share.structure_repeat",
       static_cast<double>(t.structure_repeats) / attempted, "ratio"},
      {"latency.beyond_p95", static_cast<double>(beyond_p95), "count"}};
}

// ---- the run ----------------------------------------------------------------

int run(const Args& args) {
  const WorkloadSpec spec = workload_spec(args.workload);
  const std::size_t per_round = spec.slots_per_round();
  const std::size_t block_rounds =
      (kMinBlockRequests + per_round - 1) / per_round;
  const std::size_t blocks = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             args.seconds / (spec.nominal_round_s * block_rounds) + 0.5));
  // Round 0 is the warm-up; the requests are generated before set-up and
  // stay in memory, so peak_rss_mb is reported above the peak so far.
  const std::vector<std::vector<Request>> rounds =
      make_rounds(spec, args.seed, 1 + blocks * block_rounds);
  const double generated_rss_mb = peak_rss_mb();

  std::vector<double> setup_s;
  auto timed_set_up = [&] {
    const auto t0 = Clock::now();
    std::unique_ptr<Served> s = set_up(spec, rounds[0]);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    return s;
  };
  std::unique_ptr<Served> served = timed_set_up();

  Spans spans;
  Spans* const tracing = args.trace ? &spans : nullptr;
  const Counters before = read_counters(*served, tracing);
  TimedRun t = run_timed_rounds(spec, rounds, *served, tracing);
  const double rss_mb = peak_rss_mb() - generated_rss_mb;
  const Counters after = read_counters(*served, tracing);
  served.reset();
  while (!args.trace && setup_s.size() < kSetups) timed_set_up();

  const std::vector<ProgramCheck> checks = check_programs(spec, t, args.seed);
  std::size_t passed = 0;
  for (const auto& round : t.ok)
    for (bool b : round) passed += b ? 1 : 0;
  const std::size_t failed = t.attempted - passed;
  bool correct = failed == 0;
  if (spec.fresh)
    // Cold workload: nothing may have been answered from a warm path.
    for (const char* key :
         {"service.hits", "service.inflight_joins", "net.wire_hits"})
      if (after.wire.at(key) != 0) {
        std::fprintf(stderr, "wirebench: cold workload saw %s = %llu\n", key,
                     static_cast<unsigned long long>(after.wire.at(key)));
        correct = false;
      }

  const BlockMedians m = block_medians(t, per_round, block_rounds);
  double timed_s = 0.0;
  for (double w : t.round_wall_s) timed_s += w;
  std::printf("workload %s seed %llu: %zu timed rounds of %zu in %zu blocks, "
              "%zu requests (>= %zu per block beyond p95), %.3f s timed, "
              "%zu failed; peak RSS %.1f MB above %.1f MB after generating "
              "the requests\n",
              workload_name(args.workload),
              static_cast<unsigned long long>(args.seed), t.rounds_run(),
              per_round, m.blocks, t.latencies.size(), m.beyond_p95, timed_s,
              failed, rss_mb, generated_rss_mb);
  std::printf("median latency by program (ms):");
  for (std::size_t p = 0; p < spec.programs.size(); ++p)
    std::printf(" %s=%.3f", spec.programs[p].name.c_str(),
                median(t.program_latencies[p]));
  std::printf("\n");

  if (args.trace) {
    print_result(correct, t.attempted, failed,
                 per_layer_metrics(args, spec, t, checks, before, after,
                                   m.beyond_p95, spans));
    return correct ? 0 : 1;
  }
  std::size_t checked = 0, proven = 0;
  for (const ProgramCheck& c : checks) {
    checked += c.checked ? 1 : 0;
    proven += c.checked && c.status == ValidationStatus::Pass ? 1 : 0;
  }
  print_result(
      correct, t.attempted, failed,
      {{"throughput_rps", m.rps, "1/s"},
       {"latency_p50_ms", m.p50_ms, "ms"},
       {"latency_p95_ms", m.p95_ms, "ms"},
       {"success_ratio",
        static_cast<double>(passed) / static_cast<double>(t.attempted),
        "ratio"},
       {"cpu_ms_per_request", m.cpu_ms, "ms"},
       {"peak_rss_mb", rss_mb, "MB"},
       {"setup_s", median(setup_s), "s"},
       {"two_qubit_gates", static_cast<double>(t.two_q_gates), "count"},
       {"two_qubit_depth", static_cast<double>(t.two_q_depth), "count"},
       {"proven_ratio",
        static_cast<double>(proven) /
            static_cast<double>(std::max<std::size_t>(1, checked)),
        "ratio"}});
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: wirebench --workload vqa_iterate|warm_replay|"
                 "heavyhex_checked --seed N --seconds S --trace 0|1 "
                 "[--trace-out DIR]\n");
    return 2;
  }
  try {
    return run(*args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wirebench: %s\n", e.what());
    return 3;
  }
}
