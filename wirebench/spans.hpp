#pragma once

// In-memory span recorder for the benchmark's traced run. Spans are taken
// in the benchmark's own code around calls into the program's public
// functions, kept in memory, and written as chrome://tracing JSON at exit.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace wirebench {

class Spans {
 public:
  struct Span {
    std::string name;  ///< "<layer>" or "<layer>/<detail>"
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint64_t request = 0;
    std::size_t thread = 0;  ///< small per-thread index
    double start_us = 0.0;
    double end_us = 0.0;
    double dur_ms() const { return (end_us - start_us) / 1000.0; }
  };

  /// RAII span; records nothing when `spans` is null.
  class Scope {
   public:
    Scope(Spans* spans, std::string name, std::uint64_t parent,
          std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint64_t id() const { return span_.id; }

   private:
    Spans* spans_;
    Span span_;
  };

  /// Snapshot of every finished span.
  std::vector<Span> spans() const;

  /// Self time of each span: its duration minus the durations of its
  /// direct children on the same thread (children on pool workers run
  /// concurrently and do not take time from the parent's thread).
  static std::map<std::uint64_t, double> self_ms(const std::vector<Span>& s);

  /// Layer of a span name: the part before the first '/'.
  static std::string layer(const std::string& name);

  /// Write every span as chrome://tracing "complete" events.
  void write_chrome_json(const std::string& path) const;

 private:
  double now_us() const;
  std::size_t thread_index();

  const std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  mutable std::mutex mu_;
  std::vector<Span> done_;
  std::map<std::thread::id, std::size_t> threads_;
  std::uint64_t next_id_ = 1;
};

}  // namespace wirebench
