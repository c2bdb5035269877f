// The PHOENIX compile daemon: a long-running server speaking the
// length-prefixed binary protocol of protocol.hpp over TCP and/or a
// Unix-domain socket, mapped onto the in-process CompileService (shared
// content-addressed cache, single-flight dedup, priorities, deadlines,
// mid-flight cancel, admission control).
//
//   $ ./example_phoenix_served [--port N] [--host ADDR] [--unix PATH]
//                              [--jobs N] [--cache-dir DIR] [--max-queue N]
//                              [--max-inflight N] [--port-file PATH]
//                              [--duration-s S]
//
// Defaults: TCP on 127.0.0.1:7447 (unless only --unix is given); --port 0
// binds an ephemeral port. --port-file writes the bound port to a file so
// scripts can find an ephemeral listener. --cache-dir joins the
// cross-process disk cache tier: several daemons (or a daemon plus batch
// jobs) may share one directory. --duration-s exits after S seconds
// (default: serve until SIGINT/SIGTERM).

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/error.hpp"
#include "service/server.hpp"

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true); }

}  // namespace

int main(int argc, char** argv) {
  using namespace phoenix;

  ServerOptions opt;
  opt.tcp_port = 7447;
  bool tcp_explicit = false;
  const char* port_file = nullptr;
  double duration_s = 0.0;
  for (int i = 1; i < argc; ++i) {
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(1);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--port")) {
      opt.tcp_port = static_cast<std::uint16_t>(
          std::strtoul(value("--port"), nullptr, 10));
      tcp_explicit = true;
    } else if (!std::strcmp(argv[i], "--host")) {
      opt.tcp_host = value("--host");
      tcp_explicit = true;
    } else if (!std::strcmp(argv[i], "--unix")) {
      opt.unix_path = value("--unix");
    } else if (!std::strcmp(argv[i], "--jobs")) {
      opt.service.num_threads = std::strtoul(value("--jobs"), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--cache-dir")) {
      opt.service.cache.disk_dir = value("--cache-dir");
    } else if (!std::strcmp(argv[i], "--max-queue")) {
      opt.service.max_queue = std::strtoul(value("--max-queue"), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--max-inflight")) {
      opt.max_inflight_per_conn =
          std::strtoul(value("--max-inflight"), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--port-file")) {
      port_file = value("--port-file");
    } else if (!std::strcmp(argv[i], "--duration-s")) {
      duration_s = std::strtod(value("--duration-s"), nullptr);
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", argv[i]);
      return 1;
    }
  }
  // TCP serves by default; an explicit --unix with no TCP flags means
  // "local clients only".
  opt.enable_tcp = tcp_explicit || opt.unix_path.empty();

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  try {
    ServedServer server(opt);
    server.start();
    if (server.tcp_port() != 0)
      std::printf("phoenix_served: listening on %s:%u\n", opt.tcp_host.c_str(),
                  static_cast<unsigned>(server.tcp_port()));
    if (!opt.unix_path.empty())
      std::printf("phoenix_served: listening on unix:%s\n",
                  opt.unix_path.c_str());
    std::fflush(stdout);
    if (port_file != nullptr) {
      std::FILE* f = std::fopen(port_file, "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write --port-file %s\n", port_file);
        return 1;
      }
      std::fprintf(f, "%u\n", static_cast<unsigned>(server.tcp_port()));
      std::fclose(f);
    }

    const auto t0 = std::chrono::steady_clock::now();
    while (!g_stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      if (duration_s > 0.0 &&
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                  .count() >= duration_s)
        break;
    }
    server.stop();

    const ServerStats net = server.stats();
    const ServiceStats svc = server.service().stats();
    std::printf(
        "phoenix_served: served %llu connections, %llu submits "
        "(%llu results, %llu errors), %llu/%llu bytes in/out, "
        "%llu frame errors\n",
        static_cast<unsigned long long>(net.accepted),
        static_cast<unsigned long long>(net.submits),
        static_cast<unsigned long long>(net.results),
        static_cast<unsigned long long>(net.errors_sent),
        static_cast<unsigned long long>(net.bytes_in),
        static_cast<unsigned long long>(net.bytes_out),
        static_cast<unsigned long long>(net.frame_errors));
    std::printf(
        "phoenix_served: compiles %llu, hits %llu (disk %llu), joins %llu, "
        "timeouts %llu, cancelled %llu\n",
        static_cast<unsigned long long>(svc.misses),
        static_cast<unsigned long long>(svc.hits),
        static_cast<unsigned long long>(svc.disk_hits),
        static_cast<unsigned long long>(svc.inflight_joins),
        static_cast<unsigned long long>(svc.timeouts),
        static_cast<unsigned long long>(svc.cancelled +
                                        svc.cancelled_midflight));
    std::printf(
        "phoenix_served: binds %llu, bind fallbacks %llu, skeletons %llu\n",
        static_cast<unsigned long long>(svc.bind_hits),
        static_cast<unsigned long long>(svc.bind_fallbacks),
        static_cast<unsigned long long>(svc.skeletons));
  } catch (const Error& e) {
    std::fprintf(stderr, "phoenix_served: %s\n", e.what());
    return 1;
  }
  return 0;
}
