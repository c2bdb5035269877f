#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/hash.hpp"
#include "phoenix/compiler.hpp"

namespace phoenix {

struct CacheOptions {
  /// Total in-memory byte budget across all shards
  /// (compile_result_approx_bytes accounting). Inserting into a full shard
  /// evicts least-recently-used entries until the shard is back under its
  /// slice of the budget. A single result larger than a whole shard slice is
  /// still admitted alone (the budget is a high-water target, not a hard
  /// invariant for one oversized entry).
  std::size_t max_bytes = 256ull << 20;
  /// Lock shards (fingerprints are spread by their low digest bits). More
  /// shards = less contention, coarser per-shard budget slices.
  std::size_t shards = 8;
  /// When non-empty: persist entries as
  /// `<disk_dir>/<hh>/<fingerprint-hex>.phxc`, where `<hh>` is the first
  /// two hex digits of the fingerprint — 256 shard subdirectories, so a
  /// fleet of daemons sharing one cache tier spreads directory traffic and
  /// a shard can be rsynced/evicted independently. Entries are the binary
  /// compile_result_to_bytes payload followed by a fixed-size checksum
  /// trailer (payload length, Hash128 of the payload, magic "PHXK"),
  /// written via temp-file + fsync + rename + directory fsync so a crash
  /// never publishes a partial entry. The layout is safe across processes:
  /// readers are lock-free (they only ever open published files, and
  /// rename() is atomic), and writer temp files are stamped
  /// `<name>.<pid>-<nonce>.tmp` so concurrent daemons never collide on a
  /// temp name — two daemons racing the same fingerprint both publish
  /// bit-identical bytes (a result holds no timings, validated or not), so
  /// whichever rename lands last is equivalent. Misses consult the
  /// directory and promote parses into memory; stale schema versions
  /// (including the text entries of older builds), torn writes, and
  /// checksum mismatches count as `disk_rejects`, move the damaged file to
  /// `<name>.quarantine`, and fall through to a normal miss (the entry is
  /// recompiled and rewritten). Orphaned `*.tmp` litter from crashed
  /// writers is swept at construction — but only when the stamped writer
  /// PID is dead or the file's mtime exceeds `sweep_grace_seconds`, so the
  /// sweep never races a live writer in another process mid-write.
  std::string disk_dir;
  /// Grace window for the startup tmp sweep: a temp file whose owning
  /// process cannot be shown dead (alive, unsignalable, or an unstamped
  /// legacy name) is only removed once it is at least this old.
  double sweep_grace_seconds = 900.0;
  /// Transient disk I/O (a failed write attempt, a short read) is retried up
  /// to this many extra times with `disk_retry_backoff_ms` sleeps between
  /// attempts; `disk_retries` counts the retries. Exhausting write attempts
  /// abandons persistence for that entry (`disk_write_failures`) — the
  /// in-memory entry still stands.
  std::size_t disk_retry_limit = 2;
  double disk_retry_backoff_ms = 1.0;
};

/// Content-addressed, sharded, byte-budgeted LRU cache of compile results.
/// Thread-safe; values are shared immutable snapshots, so a hit costs one
/// shard lock plus a shared_ptr copy and never blocks on other shards.
class CompileCache {
 public:
  using ResultPtr = std::shared_ptr<const CompileResult>;

  explicit CompileCache(CacheOptions opt = {});
  ~CompileCache();

  CompileCache(const CompileCache&) = delete;
  CompileCache& operator=(const CompileCache&) = delete;

  /// Memory first, then disk (when configured). Returns nullptr on miss.
  ResultPtr get(const Digest128& key);

  /// Memory tier only: no disk I/O, so it is safe to call under a caller's
  /// lock. Counts a hit when the entry is resident and nothing otherwise.
  ResultPtr get_resident(const Digest128& key);

  /// Insert (or refresh) an entry; evicts LRU entries past the byte budget
  /// and, when disk persistence is on, writes the entry through.
  void put(const Digest128& key, ResultPtr value);

  /// Drop every in-memory entry (disk files are left alone).
  void clear();

  struct Counters {
    std::uint64_t hits = 0;        ///< in-memory hits
    std::uint64_t misses = 0;      ///< full misses (memory and disk)
    std::uint64_t disk_hits = 0;   ///< served by parsing a persisted entry
    std::uint64_t disk_rejects = 0;  ///< corrupt/torn/stale entries quarantined
    std::uint64_t disk_retries = 0;  ///< transient I/O attempts retried
    std::uint64_t disk_write_failures = 0;  ///< persists abandoned after retry
    std::uint64_t evictions = 0;   ///< entries dropped by the byte budget
    std::uint64_t bytes = 0;       ///< current resident byte estimate
    std::uint64_t entries = 0;     ///< current resident entry count
  };
  Counters counters() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace phoenix
