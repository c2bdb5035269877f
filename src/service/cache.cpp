#include "service/cache.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <list>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "phoenix/serialize.hpp"

namespace phoenix {

namespace fs = std::filesystem;

namespace {

struct Entry {
  Digest128 key;
  CompileCache::ResultPtr value;
  std::size_t bytes = 0;
};

/// Fixed-size integrity trailer appended after the encoded payload, found
/// from the end of the file:
///
///   u64 payload length | u64 digest.hi | u64 digest.lo | "PHXK"
///
/// (integers little-endian; the digest is the Hash128 of the payload). A
/// reader that cannot reproduce the digest over exactly that prefix is
/// looking at a torn write, bit rot, or a file an older build wrote — all
/// treated as corrupt.
constexpr char kFooterMagic[4] = {'P', 'H', 'X', 'K'};
constexpr std::size_t kFooterBytes = 3 * 8 + sizeof kFooterMagic;

Digest128 payload_digest(const char* data, std::size_t len) {
  Hash128 h;
  h.write_bytes(data, len);
  return h.digest();
}

void append_footer(std::string& payload) {
  const Digest128 d = payload_digest(payload.data(), payload.size());
  put_u64(payload, payload.size());
  put_u64(payload, d.hi);
  put_u64(payload, d.lo);
  payload.append(kFooterMagic, sizeof kFooterMagic);
}

/// Validate `blob` (payload + footer) in place: on success truncates it to
/// the bare payload and returns true.
bool verify_and_strip_footer(std::string& blob) {
  if (blob.size() < kFooterBytes) return false;
  const std::size_t len = blob.size() - kFooterBytes;
  const auto* footer =
      reinterpret_cast<const unsigned char*>(blob.data()) + len;
  if (std::memcmp(footer + 24, kFooterMagic, sizeof kFooterMagic) != 0 ||
      get_u64(footer) != len)
    return false;
  const Digest128 want{get_u64(footer + 8), get_u64(footer + 16)};
  if (payload_digest(blob.data(), len) != want) return false;
  blob.resize(len);
  return true;
}

/// Write `data` to `path` with an fsync before returning success, via raw
/// POSIX I/O so a short write or failed flush is visible (ofstream swallows
/// both until close). Under fault injection `disk.torn` the write silently
/// truncates to half the payload and still reports success — the torn-write
/// crash the checksum footer exists to catch.
bool write_file_durable(const std::string& path, const std::string& data) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  std::size_t left = data.size();
  if (fault::triggered("disk.torn")) left /= 2;
  const char* p = data.data();
  bool ok = true;
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      ok = false;
      break;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  if (ok && ::fsync(fd) != 0) ok = false;
  if (::close(fd) != 0) ok = false;
  return ok;
}

/// Flush the directory entry so the rename itself survives a crash.
void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

void backoff_sleep(double ms) {
  if (ms > 0.0)
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

/// Per-process nonce for writer temp names: a fresh CompileCache in the same
/// process (or a second daemon on the same directory) can never reuse a live
/// writer's temp file. Seeded from the clock so nonces differ across forks
/// that inherit the counter.
std::uint64_t next_tmp_nonce() {
  static std::atomic<std::uint64_t> counter{
      static_cast<std::uint64_t>(
          std::chrono::steady_clock::now().time_since_epoch().count()) |
      1};
  return counter.fetch_add(0x9e3779b97f4a7c15ull, std::memory_order_relaxed);
}

std::string tmp_stamp_suffix() {
  char buf[64];
  std::snprintf(buf, sizeof buf, ".%ld-%016llx.tmp",
                static_cast<long>(::getpid()),
                static_cast<unsigned long long>(next_tmp_nonce()));
  return buf;
}

/// Parse the `.<pid>-<nonce>.tmp` stamp out of a temp file name. Returns
/// false for unstamped legacy litter (pre-stamp builds).
bool parse_tmp_stamp(const std::string& filename, long& pid) {
  if (filename.size() < 5 || filename.compare(filename.size() - 4, 4, ".tmp"))
    return false;
  const std::size_t dash = filename.rfind('-');
  if (dash == std::string::npos) return false;
  const std::size_t dot = filename.rfind('.', dash);
  if (dot == std::string::npos || dot + 1 >= dash) return false;
  long value = 0;
  for (std::size_t i = dot + 1; i < dash; ++i) {
    const char c = filename[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + (c - '0');
  }
  pid = value;
  return pid > 0;
}

/// Conservative liveness probe: only an ESRCH verdict proves the writer is
/// gone. EPERM (a daemon under another uid) and success both mean "assume
/// alive" — the grace window handles genuinely wedged writers.
bool pid_provably_dead(long pid) {
  return ::kill(static_cast<pid_t>(pid), 0) != 0 && errno == ESRCH;
}

double file_age_seconds(const fs::path& p) {
  std::error_code ec;
  const auto mtime = fs::last_write_time(p, ec);
  if (ec) return 0.0;  // can't tell: treat as brand new (never sweep)
  return std::chrono::duration<double>(fs::file_time_type::clock::now() -
                                       mtime)
      .count();
}

}  // namespace

struct CompileCache::Impl {
  struct Shard {
    std::mutex mu;
    std::list<Entry> lru;  ///< front = most recently used
    std::unordered_map<Digest128, std::list<Entry>::iterator, Digest128Hash>
        index;
    std::size_t bytes = 0;
  };

  CacheOptions opt;
  std::vector<Shard> shards;
  std::size_t shard_budget = 0;

  std::atomic<std::uint64_t> hits{0}, misses{0}, disk_hits{0}, disk_rejects{0},
      disk_retries{0}, disk_write_failures{0}, evictions{0}, bytes{0},
      entries{0};

  explicit Impl(CacheOptions o) : opt(std::move(o)) {
    if (opt.shards == 0) opt.shards = 1;
    shards = std::vector<Shard>(opt.shards);
    shard_budget = opt.max_bytes / opt.shards;
    if (!opt.disk_dir.empty()) {
      std::error_code ec;
      fs::create_directories(opt.disk_dir, ec);
      if (ec)
        throw Error(Stage::Service, "CompileCache: cannot create disk dir '" +
                                        opt.disk_dir + "': " + ec.message());
      sweep_orphaned_tmp();
    }
  }

  /// Sweep `*.tmp` litter left by writers that crashed between open and
  /// rename. Published `.phxc` entries are never touched, and — because the
  /// directory may be shared across processes — a temp file is only an
  /// orphan when its stamped writer PID is provably dead or the file has
  /// outlived the grace window. Anything else may be a live writer of
  /// another daemon mid-write; deleting it would yank the file out from
  /// under its rename.
  void sweep_orphaned_tmp() {
    std::error_code ec;
    for (const auto& e :
         fs::recursive_directory_iterator(opt.disk_dir, ec)) {
      if (!e.is_regular_file(ec)) continue;
      const fs::path& p = e.path();
      if (p.extension() != ".tmp") continue;
      long pid = 0;
      const bool stamped = parse_tmp_stamp(p.filename().string(), pid);
      const bool dead_owner = stamped && pid_provably_dead(pid);
      if (dead_owner || file_age_seconds(p) >= opt.sweep_grace_seconds)
        fs::remove(p, ec);
    }
  }

  Shard& shard_for(const Digest128& key) {
    return shards[static_cast<std::size_t>(key.lo) % shards.size()];
  }

  /// Published location: fingerprint-sharded subdirectory (first two hex
  /// digits, 256 shards) so a shared cache tier spreads directory traffic.
  std::string disk_path(const Digest128& key) const {
    const std::string hex = key.hex();
    return opt.disk_dir + "/" + hex.substr(0, 2) + "/" + hex + ".phxc";
  }

  /// Insert into the shard (caller does NOT hold the shard lock) and trim to
  /// the byte budget. Refreshing an existing key replaces its value.
  void insert(const Digest128& key, ResultPtr value) {
    const std::size_t sz = compile_result_approx_bytes(*value);
    Shard& s = shard_for(key);
    std::lock_guard<std::mutex> lock(s.mu);
    if (const auto it = s.index.find(key); it != s.index.end()) {
      s.bytes -= it->second->bytes;
      bytes.fetch_sub(it->second->bytes, std::memory_order_relaxed);
      s.lru.erase(it->second);
      s.index.erase(it);
      entries.fetch_sub(1, std::memory_order_relaxed);
    }
    s.lru.push_front(Entry{key, std::move(value), sz});
    s.index[key] = s.lru.begin();
    s.bytes += sz;
    bytes.fetch_add(sz, std::memory_order_relaxed);
    entries.fetch_add(1, std::memory_order_relaxed);
    // Evict from the cold end until back under budget — but never the entry
    // just inserted, so an oversized result is admitted alone.
    while (s.bytes > shard_budget && s.lru.size() > 1) {
      const Entry& victim = s.lru.back();
      s.bytes -= victim.bytes;
      bytes.fetch_sub(victim.bytes, std::memory_order_relaxed);
      s.index.erase(victim.key);
      s.lru.pop_back();
      entries.fetch_sub(1, std::memory_order_relaxed);
      evictions.fetch_add(1, std::memory_order_relaxed);
    }
  }

  ResultPtr lookup_memory(const Digest128& key) {
    Shard& s = shard_for(key);
    std::lock_guard<std::mutex> lock(s.mu);
    const auto it = s.index.find(key);
    if (it == s.index.end()) return nullptr;
    s.lru.splice(s.lru.begin(), s.lru, it->second);  // touch
    return it->second->value;
  }

  /// Move a damaged entry out of the lookup path (overwriting any previous
  /// quarantine of the same key) so it is inspected at most once and the
  /// next put() republishes a clean file under the original name.
  void quarantine(const std::string& path) {
    std::error_code ec;
    fs::rename(path, path + ".quarantine", ec);
    if (ec) fs::remove(path, ec);  // worst case: just get it out of the way
    disk_rejects.fetch_add(1, std::memory_order_relaxed);
  }

  ResultPtr lookup_disk(const Digest128& key) {
    if (opt.disk_dir.empty()) return nullptr;
    const std::string path = disk_path(key);
    std::string blob;
    bool read_ok = false;
    for (std::size_t attempt = 0; attempt <= opt.disk_retry_limit; ++attempt) {
      if (attempt > 0) {
        disk_retries.fetch_add(1, std::memory_order_relaxed);
        backoff_sleep(opt.disk_retry_backoff_ms);
      }
      if (fault::triggered("disk.read")) continue;  // injected transient error
      std::ifstream in(path, std::ios::binary);
      if (!in) return nullptr;  // no entry: a plain miss, nothing to retry
      blob.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
      if (in.bad()) continue;  // transient I/O failure mid-read
      read_ok = true;
      break;
    }
    if (!read_ok) return nullptr;
    // Beyond this point a failure is durable damage, not a transient error:
    // quarantine the file so the key recompiles instead of rereading it.
    if (!verify_and_strip_footer(blob)) {
      quarantine(path);
      return nullptr;
    }
    try {
      return std::make_shared<const CompileResult>(
          compile_result_from_bytes(blob));
    } catch (const Error&) {
      quarantine(path);  // checksum ok but stale/unparseable schema
      return nullptr;
    }
  }

  void write_disk(const Digest128& key, const CompileResult& value) {
    if (opt.disk_dir.empty()) return;
    const std::string path = disk_path(key);
    const std::string shard_dir = fs::path(path).parent_path().string();
    // PID + nonce stamp: concurrent writers — other daemons on the shared
    // directory, or a second cache instance in this process — each write a
    // distinct temp file, and the startup sweep can tell a live writer's
    // temp from a crashed one's.
    const std::string tmp = path + tmp_stamp_suffix();
    std::string doc = compile_result_to_bytes(value);
    append_footer(doc);
    for (std::size_t attempt = 0; attempt <= opt.disk_retry_limit; ++attempt) {
      if (attempt > 0) {
        disk_retries.fetch_add(1, std::memory_order_relaxed);
        backoff_sleep(opt.disk_retry_backoff_ms);
      }
      std::error_code ec;
      fs::create_directories(shard_dir, ec);
      if (ec) continue;
      if (fault::triggered("disk.write") || !write_file_durable(tmp, doc)) {
        fs::remove(tmp, ec);  // never leave a half-written tmp behind
        continue;
      }
      fs::rename(tmp, path, ec);  // atomic publish on POSIX
      if (ec) {
        fs::remove(tmp, ec);
        continue;
      }
      fsync_dir(shard_dir);
      return;
    }
    // Persistence is best-effort: the in-memory entry stands, but make the
    // abandonment observable instead of silently dropping it.
    disk_write_failures.fetch_add(1, std::memory_order_relaxed);
  }
};

CompileCache::CompileCache(CacheOptions opt)
    : impl_(std::make_unique<Impl>(std::move(opt))) {}

CompileCache::~CompileCache() = default;

CompileCache::ResultPtr CompileCache::get_resident(const Digest128& key) {
  ResultPtr hit = impl_->lookup_memory(key);
  if (hit != nullptr) impl_->hits.fetch_add(1, std::memory_order_relaxed);
  return hit;
}

CompileCache::ResultPtr CompileCache::get(const Digest128& key) {
  if (ResultPtr hit = get_resident(key)) return hit;
  if (ResultPtr disk = impl_->lookup_disk(key)) {
    impl_->disk_hits.fetch_add(1, std::memory_order_relaxed);
    impl_->insert(key, disk);
    return disk;
  }
  impl_->misses.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

void CompileCache::put(const Digest128& key, ResultPtr value) {
  if (value == nullptr) return;
  impl_->write_disk(key, *value);
  impl_->insert(key, std::move(value));
}

void CompileCache::clear() {
  for (auto& s : impl_->shards) {
    std::lock_guard<std::mutex> lock(s.mu);
    for (const Entry& e : s.lru) {
      impl_->bytes.fetch_sub(e.bytes, std::memory_order_relaxed);
      impl_->entries.fetch_sub(1, std::memory_order_relaxed);
    }
    s.lru.clear();
    s.index.clear();
    s.bytes = 0;
  }
}

CompileCache::Counters CompileCache::counters() const {
  Counters c;
  c.hits = impl_->hits.load(std::memory_order_relaxed);
  c.misses = impl_->misses.load(std::memory_order_relaxed);
  c.disk_hits = impl_->disk_hits.load(std::memory_order_relaxed);
  c.disk_rejects = impl_->disk_rejects.load(std::memory_order_relaxed);
  c.disk_retries = impl_->disk_retries.load(std::memory_order_relaxed);
  c.disk_write_failures =
      impl_->disk_write_failures.load(std::memory_order_relaxed);
  c.evictions = impl_->evictions.load(std::memory_order_relaxed);
  c.bytes = impl_->bytes.load(std::memory_order_relaxed);
  c.entries = impl_->entries.load(std::memory_order_relaxed);
  return c;
}

}  // namespace phoenix
