// Load generator for the phoenix_served daemon: replays a UCCSD/QAOA
// program mix against a live server at a configured request rate and
// publishes latency percentiles and cache-hit curves as BENCH_serve.json.
//
//   $ ./example_phoenix_load [--port N | --unix PATH]   # or self-serve
//       [--host ADDR] [--mix uccsd|qaoa|both] [--max-qubits N]
//       [--rate R] [--duration-s S] [--deadline-ms MS]
//       [--cancel-every N] [--expired-every N] [--verify]
//       [--json PATH] [--assert-zero-frame-errors] [--assert-warm-p99-ms MS]
//       [--jobs N] [--cache-dir DIR]
//
// Without --port/--unix it self-serves: an in-process ServedServer on an
// ephemeral loopback TCP port (--jobs/--cache-dir configure it), so the
// binary doubles as a one-command smoke test of the whole network stack.
//
// Phases: `cold` submits every program in the mix once (misses that compile
// on the server), then optional `--verify` recompiles each program
// in-process and checks the bytes received over the wire are bit-identical,
// then `warm` replays the mix closed-loop at --rate for --duration-s.
// --cancel-every N makes every Nth warm request a fresh (never-cached)
// program cancelled mid-flight; --expired-every N submits every Nth as a
// fresh program with an already-expired deadline (exercising the server's
// immediate DeadlineExceeded path). The --assert-* flags turn the run into
// a pass/fail gate for CI.
//
// ---- fleet mode -----------------------------------------------------------
//
//   $ ./example_phoenix_load --fleet 4 --fleet-sweep
//       [--pipeline B] [--retry N] [--kill-restart]
//       [--assert-no-lost] [--assert-disk-recovery]
//       [--assert-fleet-scaling X] [--assert-pipeline-speedup]
//   $ ./example_phoenix_load --endpoints host:p1,host:p2 --retry 10 ...
//
// --fleet N self-serves N daemons (each with its own disk-cache shard under
// --cache-dir) and drives them through the fingerprint-sharded
// ShardedClient; --endpoints drives an externally managed fleet instead.
// --fleet-sweep measures warm throughput for shard counts 1/2/4 in both
// serial (one blocking round-trip in flight) and pipelined (bursts of
// --pipeline requests, one batched write each) modes and publishes the
// records under "fleet" in the JSON. Pipelined latency is reported as the
// amortized per-slot latency (burst wall-time / burst size) — the number a
// throughput-oriented caller experiences per request.
//
// The soak phase (any fleet run that is not sweep-only) hammers the fleet
// with pipelined bursts for --duration-s and accounts for every submission:
// completed, terminal server error, or lost (transport failure surviving
// the --retry budget). --kill-restart stops one self-served daemon at 40%
// of the soak and restarts it on the same port + cache dir at 70%,
// exercising fail-over re-routing and the disk cache's crash recovery; with
// external endpoints the harness expects the operator (the CI job) to
// SIGKILL and restart a daemon mid-run. The recovery sweep afterwards
// replays every program once and, under --assert-disk-recovery, requires
// 100% cache hits plus disk-tier hits on the restarted daemon.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "hamlib/qaoa.hpp"
#include "hamlib/uccsd.hpp"
#include "phoenix/serialize.hpp"
#include "service/client.hpp"
#include "service/router.hpp"
#include "service/server.hpp"

namespace {

using namespace phoenix;
using clock_t_ = std::chrono::steady_clock;

struct Program {
  std::string name;
  std::vector<PauliTerm> terms;
  std::size_t num_qubits = 0;
};

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t idx = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(v.size()) - 1.0,
                       std::ceil(p * static_cast<double>(v.size())) - 1.0));
  return v[idx];
}

double ms_since(clock_t_::time_point t0) {
  return std::chrono::duration<double, std::milli>(clock_t_::now() - t0)
      .count();
}

struct PhaseStats {
  std::vector<double> latencies_ms;  // successful results only
  std::size_t requests = 0;
  std::size_t hits = 0;
  std::size_t errors = 0;
};

void print_phase(const char* name, const PhaseStats& p) {
  std::printf(
      "%-5s %6zu requests, hit rate %5.1f%%, p50 %8.3f ms, p99 %8.3f ms, "
      "%zu errors\n",
      name, p.requests,
      p.requests > 0 ? 100.0 * static_cast<double>(p.hits) /
                           static_cast<double>(p.requests)
                     : 0.0,
      percentile(p.latencies_ms, 0.50), percentile(p.latencies_ms, 0.99),
      p.errors);
}

// ---- fleet mode -----------------------------------------------------------

struct FleetConfig {
  std::vector<Endpoint> endpoints;  ///< external fleet (--endpoints)
  std::size_t self_fleet = 0;       ///< --fleet N: self-serve N daemons
  std::size_t pipeline = 32;        ///< burst size for pipelined modes
  bool sweep = false;
  bool kill_restart = false;
  std::size_t retry = 0;
  double retry_backoff_ms = 2.0;
  double duration_s = 2.0;
  std::size_t jobs = 0;
  const char* cache_dir = nullptr;
  const char* json_path = "BENCH_serve.json";
  std::string mix;
  bool assert_no_lost = false;
  bool assert_disk_recovery = false;
  double assert_fleet_scaling = 0.0;
  bool assert_pipeline_speedup = false;
  bool assert_zero_frame_errors = false;
  double assert_warm_p99_ms = 0.0;
};

/// One self-served shard we own (and can kill / restart).
struct Shard {
  std::unique_ptr<ServedServer> server;
  std::uint16_t port = 0;
  std::string cache_dir;
};

/// One measured (shards, mode) point of the sweep.
struct FleetRecord {
  std::size_t shards = 0;
  const char* mode = "serial";
  std::size_t window = 1;  ///< requests per batched write (1 = serial)
  std::size_t requests = 0;
  std::size_t hits = 0;
  std::size_t errors = 0;
  double elapsed_s = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

struct SoakResult {
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t terminal_errors = 0;  ///< structured server errors
  std::size_t lost = 0;             ///< transport failures after retries
  std::vector<double> latencies_ms;
  RouterStats router;
  ClientStats client;
  std::size_t sweep_checked = 0;
  std::size_t sweep_hits = 0;
  std::uint64_t disk_hits = 0;  ///< sum of service.disk_hits across fleet
  bool killed = false;
  bool restarted = false;
};

ShardedClientOptions sharded_options(const FleetConfig& cfg) {
  ShardedClientOptions copt;
  copt.retry.limit = cfg.retry;
  copt.retry.backoff_ms = cfg.retry_backoff_ms;
  return copt;
}

CompileRequest request_for(const Program& p) {
  CompileRequest req;
  req.terms = p.terms;
  req.num_qubits = p.num_qubits;
  return req;
}

/// Measure one sweep point: cold-warm the caches for this routing config,
/// then drive the fleet closed-loop for `duration_s`. Serial mode keeps one
/// blocking round-trip in flight (the single-daemon baseline at shards=1);
/// pipelined mode submits bursts of `window` and records the amortized
/// per-slot latency.
FleetRecord measure_config(const std::vector<Endpoint>& eps, bool pipelined,
                           std::size_t window,
                           const std::vector<Program>& programs,
                           const FleetConfig& cfg) {
  FleetRecord rec;
  rec.shards = eps.size();
  rec.mode = pipelined ? "pipelined" : "serial";
  rec.window = pipelined ? window : 1;

  ShardedClient client(eps, sharded_options(cfg));
  for (const Program& p : programs) client.compile_raw(request_for(p));

  // Fingerprint + serialize each program once: the warm loop measures the
  // serving fleet, not the client's per-request serialization pass.
  std::vector<PreparedRequest> prepared;
  prepared.reserve(programs.size());
  for (const Program& p : programs) prepared.push_back(client.prepare(request_for(p)));

  std::vector<double> lat;
  const auto t0 = clock_t_::now();
  std::size_t i = 0;
  for (;;) {
    const double elapsed_s =
        std::chrono::duration<double>(clock_t_::now() - t0).count();
    if (elapsed_s >= cfg.duration_s) break;
    if (!pipelined) {
      const auto r0 = clock_t_::now();
      try {
        auto h = client.submit(prepared[(i * 2654435761u) % prepared.size()]);
        if (h.ack().hit) ++rec.hits;
        h.get();
        lat.push_back(ms_since(r0));
      } catch (const Error&) {
        ++rec.errors;
      }
      ++rec.requests;
      ++i;
      continue;
    }
    std::vector<PreparedRequest> burst;
    burst.reserve(window);
    for (std::size_t b = 0; b < window; ++b, ++i)
      burst.push_back(prepared[(i * 2654435761u) % prepared.size()]);
    const auto r0 = clock_t_::now();
    try {
      auto handles = client.submit_burst(std::move(burst));
      for (auto& h : handles) {
        try {
          if (h.ack().hit) ++rec.hits;
          h.get();
        } catch (const Error&) {
          ++rec.errors;
        }
      }
      const double slot_ms = ms_since(r0) / static_cast<double>(window);
      for (std::size_t b = 0; b < window; ++b) lat.push_back(slot_ms);
    } catch (const Error&) {
      rec.errors += window;
    }
    rec.requests += window;
  }
  rec.elapsed_s = std::chrono::duration<double>(clock_t_::now() - t0).count();
  rec.qps = rec.elapsed_s > 0.0
                ? static_cast<double>(rec.requests) / rec.elapsed_s
                : 0.0;
  rec.p50_ms = percentile(lat, 0.50);
  rec.p99_ms = percentile(lat, 0.99);
  std::printf(
      "fleet %zu shard%s %-9s %7zu requests, %9.0f qps, p50 %8.4f ms, "
      "p99 %8.4f ms, %zu errors\n",
      rec.shards, rec.shards == 1 ? " " : "s", rec.mode, rec.requests, rec.qps,
      rec.p50_ms, rec.p99_ms, rec.errors);
  return rec;
}

/// Soak the full fleet with pipelined bursts, optionally killing and
/// restarting one self-served shard mid-run, then account for every
/// submission and replay the mix once to measure post-crash cache recovery.
SoakResult run_soak(const std::vector<Endpoint>& eps, std::vector<Shard>* fleet,
                    const std::vector<Program>& programs,
                    const FleetConfig& cfg) {
  SoakResult soak;
  ShardedClientOptions copt = sharded_options(cfg);
  if (cfg.kill_restart && copt.retry.limit == 0)
    copt.retry.limit = 8;  // a kill with no retry budget would only measure
                           // the budget, not the fail-over
  ShardedClient client(eps, copt);
  for (const Program& p : programs) client.compile_raw(request_for(p));

  std::vector<PreparedRequest> prepared;
  prepared.reserve(programs.size());
  for (const Program& p : programs) prepared.push_back(client.prepare(request_for(p)));

  const std::size_t window = cfg.pipeline > 0 ? cfg.pipeline : 16;
  const std::size_t victim = eps.size() - 1;
  const auto t0 = clock_t_::now();
  std::size_t i = 0;
  for (;;) {
    const double elapsed_s =
        std::chrono::duration<double>(clock_t_::now() - t0).count();
    if (elapsed_s >= cfg.duration_s) break;
    if (cfg.kill_restart && fleet != nullptr) {
      if (!soak.killed && elapsed_s > 0.4 * cfg.duration_s) {
        std::printf("soak: killing shard %zu (port %u) at %.2fs\n", victim,
                    static_cast<unsigned>((*fleet)[victim].port), elapsed_s);
        (*fleet)[victim].server->stop();
        (*fleet)[victim].server.reset();
        soak.killed = true;
      } else if (soak.killed && !soak.restarted &&
                 elapsed_s > 0.7 * cfg.duration_s) {
        Shard& s = (*fleet)[victim];
        ServerOptions sopt;
        sopt.enable_tcp = true;
        sopt.tcp_port = s.port;  // same port: the endpoint identity (and the
                                 // rendezvous label) survives the restart
        sopt.service.num_threads = cfg.jobs;
        if (!s.cache_dir.empty()) sopt.service.cache.disk_dir = s.cache_dir;
        for (int attempt = 0;; ++attempt) {
          try {
            s.server = std::make_unique<ServedServer>(std::move(sopt));
            s.server->start();
            break;
          } catch (const Error&) {
            s.server.reset();
            if (attempt >= 40) throw;
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
          }
        }
        std::printf("soak: restarted shard %zu (port %u) at %.2fs\n", victim,
                    static_cast<unsigned>(s.port), elapsed_s);
        soak.restarted = true;
      }
    }
    std::vector<PreparedRequest> burst;
    burst.reserve(window);
    for (std::size_t b = 0; b < window; ++b, ++i)
      burst.push_back(prepared[(i * 2654435761u) % prepared.size()]);
    soak.submitted += window;
    const auto r0 = clock_t_::now();
    std::vector<ShardedClient::Handle> handles;
    try {
      handles = client.submit_burst(std::move(burst));
    } catch (const Error& e) {
      if (e.stage() == Stage::Io) soak.lost += window;
      else soak.terminal_errors += window;
      continue;
    }
    for (auto& h : handles) {
      try {
        h.get();
        ++soak.completed;
      } catch (const Error& e) {
        if (e.stage() == Stage::Io) ++soak.lost;
        else ++soak.terminal_errors;
      }
    }
    const double slot_ms = ms_since(r0) / static_cast<double>(window);
    for (std::size_t b = 0; b < window; ++b) soak.latencies_ms.push_back(slot_ms);
  }

  // Recovery sweep: with every daemon back up, each program must come back
  // as a cache hit — a daemon restarted onto its disk-cache shard serves
  // its keys from the disk tier instead of recompiling.
  for (const Program& p : programs) {
    ++soak.sweep_checked;
    try {
      auto h = client.submit(request_for(p));
      if (h.ack().hit) ++soak.sweep_hits;
      h.get();
    } catch (const Error&) {
    }
  }
  for (std::size_t e = 0; e < eps.size(); ++e) {
    try {
      for (const auto& [name, v] : client.server_stats(e))
        if (name == "service.disk_hits") soak.disk_hits += v;
    } catch (const Error&) {
    }
  }
  soak.router = client.router_stats();
  soak.client = client.client_stats();
  std::printf(
      "soak  %6zu submitted, %zu completed, %zu server errors, %zu lost, "
      "p99 %.4f ms\n      (router: %llu routed, %llu reroutes, %llu probes, "
      "%llu retries; recovery sweep %zu/%zu hit, disk hits %llu)\n",
      soak.submitted, soak.completed, soak.terminal_errors, soak.lost,
      percentile(soak.latencies_ms, 0.99),
      static_cast<unsigned long long>(soak.router.routed),
      static_cast<unsigned long long>(soak.router.reroutes),
      static_cast<unsigned long long>(soak.router.probes),
      static_cast<unsigned long long>(soak.router.retries), soak.sweep_hits,
      soak.sweep_checked, static_cast<unsigned long long>(soak.disk_hits));
  return soak;
}

int run_fleet(const std::vector<Program>& programs, FleetConfig cfg) {
  // ---- fleet: self-served shards or external endpoints ------------------
  std::vector<Shard> fleet;
  if (cfg.self_fleet > 0) {
    for (std::size_t i = 0; i < cfg.self_fleet; ++i) {
      Shard s;
      if (cfg.cache_dir != nullptr)
        s.cache_dir =
            std::string(cfg.cache_dir) + "/shard" + std::to_string(i);
      ServerOptions sopt;
      sopt.enable_tcp = true;
      sopt.tcp_port = 0;
      sopt.service.num_threads = cfg.jobs;
      if (!s.cache_dir.empty()) sopt.service.cache.disk_dir = s.cache_dir;
      s.server = std::make_unique<ServedServer>(std::move(sopt));
      s.server->start();
      s.port = s.server->tcp_port();
      cfg.endpoints.push_back(Endpoint::tcp("127.0.0.1", s.port));
      fleet.push_back(std::move(s));
    }
    std::printf("phoenix_load: self-serving fleet of %zu daemons\n",
                fleet.size());
  }
  std::printf("phoenix_load: fleet of %zu endpoint%s, %zu programs (%s mix)\n\n",
              cfg.endpoints.size(), cfg.endpoints.size() == 1 ? "" : "s",
              programs.size(), cfg.mix.c_str());

  // ---- sweep: shard counts 1/2/4 x serial/pipelined ---------------------
  std::vector<FleetRecord> records;
  if (cfg.sweep) {
    const std::size_t window = cfg.pipeline > 0 ? cfg.pipeline : 32;
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                     std::size_t{4}}) {
      if (shards > cfg.endpoints.size()) continue;
      const std::vector<Endpoint> subset(cfg.endpoints.begin(),
                                         cfg.endpoints.begin() +
                                             static_cast<std::ptrdiff_t>(
                                                 shards));
      records.push_back(
          measure_config(subset, /*pipelined=*/false, window, programs, cfg));
      records.push_back(
          measure_config(subset, /*pipelined=*/true, window, programs, cfg));
    }
  }

  // ---- soak (+ optional kill/restart + recovery sweep) ------------------
  bool ran_soak = false;
  SoakResult soak;
  if (!cfg.sweep || cfg.kill_restart) {
    soak = run_soak(cfg.endpoints, fleet.empty() ? nullptr : &fleet, programs,
                    cfg);
    ran_soak = true;
  }

  // ---- aggregate frame errors across the fleet --------------------------
  std::uint64_t frame_errors = 0;
  {
    ShardedClient client(cfg.endpoints, sharded_options(cfg));
    for (std::size_t e = 0; e < cfg.endpoints.size(); ++e) {
      try {
        for (const auto& [name, v] : client.server_stats(e))
          if (name == "net.frame_errors") frame_errors += v;
      } catch (const Error&) {
      }
    }
  }

  // ---- BENCH_serve.json -------------------------------------------------
  std::FILE* f = std::fopen(cfg.json_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", cfg.json_path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"phoenix_fleet\",\n");
  std::fprintf(f, "  \"mix\": \"%s\",\n  \"programs\": %zu,\n",
               cfg.mix.c_str(), programs.size());
  std::fprintf(f, "  \"endpoints\": %zu,\n  \"duration_s\": %.2f,\n",
               cfg.endpoints.size(), cfg.duration_s);
  std::fprintf(f, "  \"pipeline_window\": %zu,\n",
               cfg.pipeline > 0 ? cfg.pipeline : 32);
  std::fprintf(f, "  \"fleet\": [");
  for (std::size_t r = 0; r < records.size(); ++r) {
    const FleetRecord& rec = records[r];
    std::fprintf(
        f,
        "%s\n    {\"shards\": %zu, \"mode\": \"%s\", \"window\": %zu, "
        "\"requests\": %zu, \"qps\": %.1f, \"p50_ms\": %.4f, \"p99_ms\": "
        "%.4f, \"hit_rate\": %.4f, \"errors\": %zu}",
        r == 0 ? "" : ",", rec.shards, rec.mode, rec.window, rec.requests,
        rec.qps, rec.p50_ms, rec.p99_ms,
        rec.requests > 0 ? static_cast<double>(rec.hits) /
                               static_cast<double>(rec.requests)
                         : 0.0,
        rec.errors);
  }
  std::fprintf(f, "\n  ]");
  if (ran_soak) {
    std::fprintf(
        f,
        ",\n  \"soak\": {\"submitted\": %zu, \"completed\": %zu, "
        "\"server_errors\": %zu, \"lost\": %zu, \"p50_ms\": %.4f, "
        "\"p99_ms\": %.4f, \"killed\": %s, \"restarted\": %s,\n"
        "    \"router\": {\"routed\": %llu, \"reroutes\": %llu, \"probes\": "
        "%llu, \"retries\": %llu},\n"
        "    \"client\": {\"submits\": %llu, \"results\": %llu, "
        "\"burst_writes\": %llu, \"burst_frames\": %llu, \"conns_opened\": "
        "%llu, \"io_errors\": %llu, \"connect_retries\": %llu},\n"
        "    \"recovery_sweep\": {\"checked\": %zu, \"hits\": %zu, "
        "\"disk_hits\": %llu}}",
        soak.submitted, soak.completed, soak.terminal_errors, soak.lost,
        percentile(soak.latencies_ms, 0.50),
        percentile(soak.latencies_ms, 0.99), soak.killed ? "true" : "false",
        soak.restarted ? "true" : "false",
        static_cast<unsigned long long>(soak.router.routed),
        static_cast<unsigned long long>(soak.router.reroutes),
        static_cast<unsigned long long>(soak.router.probes),
        static_cast<unsigned long long>(soak.router.retries),
        static_cast<unsigned long long>(soak.client.submits),
        static_cast<unsigned long long>(soak.client.results),
        static_cast<unsigned long long>(soak.client.burst_writes),
        static_cast<unsigned long long>(soak.client.burst_frames),
        static_cast<unsigned long long>(soak.client.conns_opened),
        static_cast<unsigned long long>(soak.client.io_errors),
        static_cast<unsigned long long>(soak.client.connect_retries),
        soak.sweep_checked, soak.sweep_hits,
        static_cast<unsigned long long>(soak.disk_hits));
  }
  std::fprintf(f, ",\n  \"frame_errors\": %llu\n}\n",
               static_cast<unsigned long long>(frame_errors));
  std::fclose(f);
  std::printf("\nwrote %s\n", cfg.json_path);

  // ---- CI gates ---------------------------------------------------------
  int rc = 0;
  if (cfg.assert_zero_frame_errors && frame_errors != 0) {
    std::fprintf(stderr, "ASSERT FAILED: net.frame_errors = %llu\n",
                 static_cast<unsigned long long>(frame_errors));
    rc = 1;
  }
  if (cfg.assert_warm_p99_ms > 0.0) {
    double worst = 0.0;
    for (const FleetRecord& rec : records) worst = std::max(worst, rec.p99_ms);
    if (ran_soak)
      worst = std::max(worst, percentile(soak.latencies_ms, 0.99));
    if (worst > cfg.assert_warm_p99_ms) {
      std::fprintf(stderr, "ASSERT FAILED: warm p99 %.3f ms > budget %.3f ms\n",
                   worst, cfg.assert_warm_p99_ms);
      rc = 1;
    }
  }
  if (cfg.assert_no_lost && (!ran_soak || soak.lost != 0)) {
    std::fprintf(stderr, "ASSERT FAILED: %zu requests lost in transport\n",
                 soak.lost);
    rc = 1;
  }
  if (cfg.assert_disk_recovery &&
      (!ran_soak || soak.sweep_hits != soak.sweep_checked ||
       soak.disk_hits == 0)) {
    std::fprintf(stderr,
                 "ASSERT FAILED: recovery sweep %zu/%zu hit, disk hits %llu "
                 "(want all hits and disk_hits > 0)\n",
                 soak.sweep_hits, soak.sweep_checked,
                 static_cast<unsigned long long>(soak.disk_hits));
    rc = 1;
  }
  auto find_record = [&](std::size_t shards,
                         const char* mode) -> const FleetRecord* {
    for (const FleetRecord& rec : records)
      if (rec.shards == shards && !std::strcmp(rec.mode, mode)) return &rec;
    return nullptr;
  };
  if (cfg.assert_fleet_scaling > 0.0) {
    const FleetRecord* base = find_record(1, "serial");
    const FleetRecord* best = find_record(4, "pipelined");
    if (base == nullptr || best == nullptr) {
      std::fprintf(stderr,
                   "ASSERT FAILED: --assert-fleet-scaling needs a sweep over "
                   "1 and 4 shards\n");
      rc = 1;
    } else if (best->qps < cfg.assert_fleet_scaling * base->qps) {
      std::fprintf(stderr,
                   "ASSERT FAILED: 4-shard pipelined %.0f qps < %.2fx "
                   "1-shard serial baseline %.0f qps\n",
                   best->qps, cfg.assert_fleet_scaling, base->qps);
      rc = 1;
    }
  }
  if (cfg.assert_pipeline_speedup) {
    const FleetRecord* serial = find_record(1, "serial");
    const FleetRecord* piped = find_record(1, "pipelined");
    if (serial == nullptr || piped == nullptr) {
      std::fprintf(stderr,
                   "ASSERT FAILED: --assert-pipeline-speedup needs a sweep\n");
      rc = 1;
    } else if (piped->p50_ms >= serial->p50_ms) {
      std::fprintf(stderr,
                   "ASSERT FAILED: pipelined warm p50 %.4f ms >= serial warm "
                   "p50 %.4f ms\n",
                   piped->p50_ms, serial->p50_ms);
      rc = 1;
    }
  }
  for (Shard& s : fleet)
    if (s.server != nullptr) s.server->stop();
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  const char* unix_path = nullptr;
  std::string mix = "both";
  std::size_t max_qubits = 16;
  double rate = 200.0;
  double duration_s = 2.0;
  double deadline_ms = CompileRequest::kNoDeadline;
  std::size_t cancel_every = 0;
  std::size_t expired_every = 0;
  bool verify = false;
  const char* json_path = "BENCH_serve.json";
  bool assert_zero_frame_errors = false;
  double assert_warm_p99_ms = 0.0;
  std::size_t jobs = 0;
  const char* cache_dir = nullptr;
  FleetConfig fleet;

  for (int i = 1; i < argc; ++i) {
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(1);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--host")) host = value("--host");
    else if (!std::strcmp(argv[i], "--port"))
      port = static_cast<std::uint16_t>(
          std::strtoul(value("--port"), nullptr, 10));
    else if (!std::strcmp(argv[i], "--unix")) unix_path = value("--unix");
    else if (!std::strcmp(argv[i], "--mix")) mix = value("--mix");
    else if (!std::strcmp(argv[i], "--max-qubits"))
      max_qubits = std::strtoul(value("--max-qubits"), nullptr, 10);
    else if (!std::strcmp(argv[i], "--rate"))
      rate = std::strtod(value("--rate"), nullptr);
    else if (!std::strcmp(argv[i], "--duration-s"))
      duration_s = std::strtod(value("--duration-s"), nullptr);
    else if (!std::strcmp(argv[i], "--deadline-ms"))
      deadline_ms = std::strtod(value("--deadline-ms"), nullptr);
    else if (!std::strcmp(argv[i], "--cancel-every"))
      cancel_every = std::strtoul(value("--cancel-every"), nullptr, 10);
    else if (!std::strcmp(argv[i], "--expired-every"))
      expired_every = std::strtoul(value("--expired-every"), nullptr, 10);
    else if (!std::strcmp(argv[i], "--verify")) verify = true;
    else if (!std::strcmp(argv[i], "--json")) json_path = value("--json");
    else if (!std::strcmp(argv[i], "--assert-zero-frame-errors"))
      assert_zero_frame_errors = true;
    else if (!std::strcmp(argv[i], "--assert-warm-p99-ms"))
      assert_warm_p99_ms = std::strtod(value("--assert-warm-p99-ms"), nullptr);
    else if (!std::strcmp(argv[i], "--jobs"))
      jobs = std::strtoul(value("--jobs"), nullptr, 10);
    else if (!std::strcmp(argv[i], "--cache-dir"))
      cache_dir = value("--cache-dir");
    else if (!std::strcmp(argv[i], "--fleet"))
      fleet.self_fleet = std::strtoul(value("--fleet"), nullptr, 10);
    else if (!std::strcmp(argv[i], "--endpoints")) {
      std::string specs = value("--endpoints");
      std::size_t start = 0;
      while (start <= specs.size()) {
        const std::size_t comma = specs.find(',', start);
        const std::string one =
            specs.substr(start, comma == std::string::npos ? std::string::npos
                                                           : comma - start);
        if (!one.empty()) {
          try {
            fleet.endpoints.push_back(Endpoint::parse(one));
          } catch (const Error& e) {
            std::fprintf(stderr, "--endpoints: %s\n", e.what());
            return 1;
          }
        }
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    } else if (!std::strcmp(argv[i], "--pipeline"))
      fleet.pipeline = std::strtoul(value("--pipeline"), nullptr, 10);
    else if (!std::strcmp(argv[i], "--fleet-sweep")) fleet.sweep = true;
    else if (!std::strcmp(argv[i], "--kill-restart"))
      fleet.kill_restart = true;
    else if (!std::strcmp(argv[i], "--retry"))
      fleet.retry = std::strtoul(value("--retry"), nullptr, 10);
    else if (!std::strcmp(argv[i], "--retry-backoff-ms"))
      fleet.retry_backoff_ms =
          std::strtod(value("--retry-backoff-ms"), nullptr);
    else if (!std::strcmp(argv[i], "--assert-no-lost"))
      fleet.assert_no_lost = true;
    else if (!std::strcmp(argv[i], "--assert-disk-recovery"))
      fleet.assert_disk_recovery = true;
    else if (!std::strcmp(argv[i], "--assert-fleet-scaling"))
      fleet.assert_fleet_scaling =
          std::strtod(value("--assert-fleet-scaling"), nullptr);
    else if (!std::strcmp(argv[i], "--assert-pipeline-speedup"))
      fleet.assert_pipeline_speedup = true;
    else {
      std::fprintf(stderr, "unknown argument '%s'\n", argv[i]);
      return 1;
    }
  }
  if (mix != "uccsd" && mix != "qaoa" && mix != "both") {
    std::fprintf(stderr, "--mix must be uccsd, qaoa, or both\n");
    return 1;
  }

  // ---- program mix -------------------------------------------------------
  std::vector<Program> programs;
  if (mix != "qaoa")
    for (auto& b : uccsd_suite_small(max_qubits))
      programs.push_back({b.name, std::move(b.terms), b.num_qubits});
  if (mix != "uccsd")
    for (auto& b : qaoa_suite())
      if (b.num_qubits <= max_qubits)
        programs.push_back({b.name, std::move(b.terms), b.num_qubits});
  if (programs.empty()) {
    std::fprintf(stderr, "empty program mix (max-qubits too small?)\n");
    return 1;
  }

  // ---- fleet mode --------------------------------------------------------
  if (fleet.self_fleet > 0 || !fleet.endpoints.empty()) {
    if (fleet.self_fleet > 0 && !fleet.endpoints.empty()) {
      std::fprintf(stderr, "--fleet and --endpoints are mutually exclusive\n");
      return 1;
    }
    if (fleet.kill_restart && fleet.self_fleet == 0) {
      std::fprintf(stderr,
                   "--kill-restart needs a self-served fleet (--fleet N); "
                   "with --endpoints the operator kills a daemon instead\n");
      return 1;
    }
    fleet.duration_s = duration_s;
    fleet.jobs = jobs;
    fleet.cache_dir = cache_dir;
    fleet.json_path = json_path;
    fleet.mix = mix;
    fleet.assert_zero_frame_errors = assert_zero_frame_errors;
    fleet.assert_warm_p99_ms = assert_warm_p99_ms;
    try {
      return run_fleet(programs, std::move(fleet));
    } catch (const Error& e) {
      std::fprintf(stderr, "phoenix_load: %s\n", e.what());
      return 1;
    }
  }

  // ---- server ------------------------------------------------------------
  std::unique_ptr<ServedServer> self_server;
  const bool self_serve = port == 0 && unix_path == nullptr;
  const char* transport = unix_path != nullptr ? "unix" : "tcp";
  try {
    if (self_serve) {
      ServerOptions sopt;
      sopt.enable_tcp = true;
      sopt.tcp_port = 0;
      sopt.service.num_threads = jobs;
      if (cache_dir != nullptr) sopt.service.cache.disk_dir = cache_dir;
      self_server = std::make_unique<ServedServer>(std::move(sopt));
      self_server->start();
      port = self_server->tcp_port();
      std::printf("phoenix_load: self-serving on 127.0.0.1:%u\n",
                  static_cast<unsigned>(port));
      host = "127.0.0.1";
    }
    // One connection, one request in flight: the serial caller's shape.
    PooledClientOptions copt;
    copt.connections = 1;
    PooledClient client(unix_path != nullptr ? Endpoint::uds(unix_path)
                                             : Endpoint::tcp(host, port),
                        copt);
    std::printf("phoenix_load: %zu programs (%s mix), %s transport\n\n",
                programs.size(), mix.c_str(), transport);

    auto make_request = [](const Program& p) {
      CompileRequest req;
      req.terms = p.terms;
      req.num_qubits = p.num_qubits;
      return req;
    };

    // ---- cold phase ------------------------------------------------------
    PhaseStats cold;
    std::vector<std::string> cold_payloads(programs.size());
    for (std::size_t i = 0; i < programs.size(); ++i) {
      const auto t0 = clock_t_::now();
      PooledClient::Handle h = client.submit_async(make_request(programs[i]));
      const bool hit = h.ack().hit;
      cold_payloads[i] = h.get();
      cold.latencies_ms.push_back(ms_since(t0));
      ++cold.requests;
      if (hit) ++cold.hits;
    }
    print_phase("cold", cold);

    // ---- verify ----------------------------------------------------------
    std::size_t verified = 0;
    if (verify) {
      CompileService local;
      for (std::size_t i = 0; i < programs.size(); ++i) {
        const auto res = local.compile(make_request(programs[i]));
        if (compile_result_to_bytes(*res) == cold_payloads[i]) {
          ++verified;
        } else {
          std::fprintf(stderr,
                       "verify: %s differs between wire and in-process\n",
                       programs[i].name.c_str());
        }
      }
      std::printf("verify %4zu/%zu bit-identical to in-process compiles\n",
                  verified, programs.size());
    }

    // ---- warm phase ------------------------------------------------------
    PhaseStats warm;
    std::size_t deadline_exceeded = 0, cancelled = 0, overloaded = 0;
    struct Sample {
      double t_s;
      double latency_ms;
      bool hit;
      bool ok;
    };
    std::vector<Sample> samples;
    double perturb = 0.0;  // makes cancel/expired probes cache-unique
    const auto warm_t0 = clock_t_::now();
    for (std::size_t i = 0;; ++i) {
      const double elapsed_s =
          std::chrono::duration<double>(clock_t_::now() - warm_t0).count();
      if (elapsed_s >= duration_s) break;
      if (rate > 0.0) {
        const auto next =
            warm_t0 + std::chrono::duration_cast<clock_t_::duration>(
                          std::chrono::duration<double>(
                              static_cast<double>(i) / rate));
        std::this_thread::sleep_until(next);
      }

      const Program& p = programs[(i * 2654435761u) % programs.size()];
      const bool do_cancel = cancel_every > 0 && (i + 1) % cancel_every == 0;
      const bool do_expired =
          !do_cancel && expired_every > 0 && (i + 1) % expired_every == 0;
      CompileRequest req = make_request(p);
      if (do_cancel || do_expired) {
        perturb += 1e-9;
        req.terms.front().coeff += perturb;  // fresh fingerprint: cold miss
        // A fresh coefficient alone would be bound on the submitting thread
        // once the structure has a skeleton, answered before the Cancel
        // arrives. O3 is never bound, so every probe compiles.
        req.options.peephole = PeepholeLevel::O3;
        if (do_expired) req.deadline_ms = 0.0;
      } else {
        req.deadline_ms = deadline_ms;
      }

      ++warm.requests;
      const auto t0 = clock_t_::now();
      try {
        PooledClient::Handle h = client.submit_async(req);
        const bool hit = h.ack().hit;
        if (do_cancel) h.cancel();
        h.get();
        warm.latencies_ms.push_back(ms_since(t0));
        if (hit) ++warm.hits;
        samples.push_back({elapsed_s, ms_since(t0), hit, true});
      } catch (const Error& e) {
        ++warm.errors;
        samples.push_back({elapsed_s, ms_since(t0), false, false});
        switch (e.kind()) {
          case Error::Kind::DeadlineExceeded: ++deadline_exceeded; break;
          case Error::Kind::Cancelled: ++cancelled; break;
          case Error::Kind::Overloaded: ++overloaded; break;
          default:
            std::fprintf(stderr, "warm request failed: %s\n", e.what());
            return 1;
        }
      }
    }
    print_phase("warm", warm);
    if (cancel_every > 0 || expired_every > 0)
      std::printf(
          "      (%zu cancelled mid-flight, %zu deadline-exceeded, "
          "%zu overloaded)\n",
          cancelled, deadline_exceeded, overloaded);

    // ---- server counters -------------------------------------------------
    std::map<std::string, std::uint64_t> server_stats;
    for (const auto& [name, v] : client.server_stats()) server_stats[name] = v;
    const std::uint64_t frame_errors = server_stats["net.frame_errors"];
    std::printf(
        "server: %llu binds, %llu bind fallbacks, %llu skeletons\n",
        static_cast<unsigned long long>(server_stats["service.bind_hits"]),
        static_cast<unsigned long long>(server_stats["service.bind_fallbacks"]),
        static_cast<unsigned long long>(server_stats["service.skeletons"]));

    // ---- BENCH_serve.json ------------------------------------------------
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
    auto phase_json = [&](const char* name, const PhaseStats& p) {
      std::fprintf(
          f,
          "    \"%s\": {\"requests\": %zu, \"hits\": %zu, \"errors\": %zu, "
          "\"hit_rate\": %.4f, \"p50_ms\": %.4f, \"p99_ms\": %.4f}",
          name, p.requests, p.hits, p.errors,
          p.requests > 0 ? static_cast<double>(p.hits) /
                               static_cast<double>(p.requests)
                         : 0.0,
          percentile(p.latencies_ms, 0.50), percentile(p.latencies_ms, 0.99));
    };
    std::fprintf(f, "{\n  \"bench\": \"phoenix_served\",\n");
    std::fprintf(f, "  \"transport\": \"%s\",\n", transport);
    std::fprintf(f, "  \"mix\": \"%s\",\n  \"programs\": %zu,\n", mix.c_str(),
                 programs.size());
    std::fprintf(f, "  \"rate_rps\": %.1f,\n  \"duration_s\": %.2f,\n", rate,
                 duration_s);
    std::fprintf(f, "  \"phases\": {\n");
    phase_json("cold", cold);
    std::fprintf(f, ",\n");
    phase_json("warm", warm);
    std::fprintf(f, "\n  },\n");
    std::fprintf(f,
                 "  \"warm_errors\": {\"deadline_exceeded\": %zu, "
                 "\"cancelled\": %zu, \"overloaded\": %zu},\n",
                 deadline_exceeded, cancelled, overloaded);
    if (verify)
      std::fprintf(f,
                   "  \"verify\": {\"checked\": %zu, \"bit_identical\": "
                   "%zu},\n",
                   programs.size(), verified);
    // Per-second hit-rate / latency curve over the warm phase.
    std::fprintf(f, "  \"curve\": [");
    const std::size_t buckets =
        static_cast<std::size_t>(std::ceil(duration_s));
    bool first = true;
    for (std::size_t b = 0; b < buckets; ++b) {
      std::size_t reqs = 0, hits = 0;
      std::vector<double> lat;
      for (const Sample& s : samples) {
        if (static_cast<std::size_t>(s.t_s) != b) continue;
        ++reqs;
        if (s.hit) ++hits;
        if (s.ok) lat.push_back(s.latency_ms);
      }
      if (reqs == 0) continue;
      std::fprintf(f,
                   "%s\n    {\"t_s\": %zu, \"requests\": %zu, \"hit_rate\": "
                   "%.4f, \"p50_ms\": %.4f, \"p99_ms\": %.4f}",
                   first ? "" : ",", b, reqs,
                   static_cast<double>(hits) / static_cast<double>(reqs),
                   percentile(lat, 0.50), percentile(lat, 0.99));
      first = false;
    }
    std::fprintf(f, "\n  ],\n");
    std::fprintf(f, "  \"server\": {");
    first = true;
    for (const auto& [name, v] : server_stats) {
      std::fprintf(f, "%s\n    \"%s\": %llu", first ? "" : ",", name.c_str(),
                   static_cast<unsigned long long>(v));
      first = false;
    }
    std::fprintf(f, "\n  }\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path);

    // ---- CI gates --------------------------------------------------------
    int rc = 0;
    if (assert_zero_frame_errors && frame_errors != 0) {
      std::fprintf(stderr, "ASSERT FAILED: net.frame_errors = %llu\n",
                   static_cast<unsigned long long>(frame_errors));
      rc = 1;
    }
    if (verify && verified != programs.size()) {
      std::fprintf(stderr,
                   "ASSERT FAILED: %zu/%zu results bit-identical\n", verified,
                   programs.size());
      rc = 1;
    }
    const double warm_p99 = percentile(warm.latencies_ms, 0.99);
    if (assert_warm_p99_ms > 0.0 && warm_p99 > assert_warm_p99_ms) {
      std::fprintf(stderr,
                   "ASSERT FAILED: warm p99 %.3f ms > budget %.3f ms\n",
                   warm_p99, assert_warm_p99_ms);
      rc = 1;
    }
    if (self_server != nullptr) self_server->stop();
    return rc;
  } catch (const Error& e) {
    std::fprintf(stderr, "phoenix_load: %s\n", e.what());
    return 1;
  }
}
