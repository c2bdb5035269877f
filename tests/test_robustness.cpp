// Chaos / robustness suite: cooperative cancellation and deadlines through
// the compiler, torn/corrupt disk-cache entries, fault-injected I/O and
// compile failures, mid-flight cancellation, cancellation storms, and
// admission-control load shedding. Fault-dependent tests skip when the build
// lacks PHOENIX_FAULT_INJECT (the `chaos` CI job builds with it ON).
//
// Timing assertions use sanitizer-sized slack: the product target is
// single-digit-millisecond cancellation latency, asserted here against
// bounds loose enough for ASan/TSan schedules.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "hamlib/uccsd.hpp"
#include "phoenix/compiler.hpp"
#include "phoenix/serialize.hpp"
#include "service/cache.hpp"
#include "service/fingerprint.hpp"
#include "service/service.hpp"

namespace phoenix {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

std::vector<PauliTerm> small_terms() {
  return {{"XXII", 0.5}, {"IYYI", -0.25}, {"IIZZ", 0.125}, {"ZIIZ", 1.0}};
}

const UccsdBenchmark& lih_bk() {
  static const UccsdBenchmark b =
      generate_uccsd(Molecule::lih(), true, FermionEncoding::BravyiKitaev);
  return b;
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Catch a phoenix::Error from `fn` and return its kind; fails the test if
/// nothing was thrown.
template <typename Fn>
Error::Kind kind_of(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.kind();
  }
  ADD_FAILURE() << "expected a phoenix::Error";
  return Error::Kind::Failed;
}

void expect_gates_identical(const Gate& a, const Gate& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.q0, b.q0);
  EXPECT_EQ(a.q1, b.q1);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.param),
            std::bit_cast<std::uint64_t>(b.param));
  ASSERT_EQ(a.sub.size(), b.sub.size());
  for (std::size_t i = 0; i < a.sub.size(); ++i)
    expect_gates_identical(a.sub[i], b.sub[i]);
}

void expect_circuits_identical(const Circuit& a, const Circuit& b) {
  EXPECT_EQ(a.num_qubits(), b.num_qubits());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    expect_gates_identical(a.gate(i), b.gate(i));
}

struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const char* tag) {
    path = std::filesystem::temp_directory_path() /
           (std::string("phoenix_") + tag + "_" + std::to_string(::getpid()) +
            "_" + std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

/// Disarm every failpoint on scope exit so one test's faults never leak.
struct FaultGuard {
  ~FaultGuard() { fault::reset(); }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
}

/// Published on-disk location of a cache entry (fingerprint-sharded layout).
std::string entry_path(const TempDir& dir, const Digest128& k) {
  const std::string hex = k.hex();
  return dir.str() + "/" + hex.substr(0, 2) + "/" + hex + ".phxc";
}

// --- cancel tokens ----------------------------------------------------------

TEST(RobustnessCancel, EmptyTokenNeverTrips) {
  CancelToken t;
  EXPECT_FALSE(t.valid());
  EXPECT_FALSE(t.cancel_requested());
  EXPECT_FALSE(t.deadline_expired());
  std::uint32_t tick = 0;
  for (int i = 0; i < 1000; ++i) t.poll(tick, Stage::Simplify);
  t.check(Stage::Simplify);  // no throw
}

TEST(RobustnessCancel, RequestCancelThrowsCancelledKind) {
  CancelSource src;
  src.request_cancel();
  const CancelToken t = src.token();
  EXPECT_TRUE(t.cancel_requested());
  try {
    t.check(Stage::Routing);
    FAIL() << "expected a throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), Error::Kind::Cancelled);
    EXPECT_EQ(e.stage(), Stage::Routing);
  }
}

TEST(RobustnessCancel, DeadlineExpiryThrowsDeadlineKind) {
  const CancelToken t = CancelToken::after_ms(-1.0);
  EXPECT_TRUE(t.has_deadline());
  EXPECT_TRUE(t.deadline_expired());
  EXPECT_LT(t.remaining_ms(), 0.0);
  EXPECT_EQ(kind_of([&] { t.check(Stage::Peephole); }),
            Error::Kind::DeadlineExceeded);
}

// One saturating conversion: far futures mean no deadline, far pasts and
// NaN an expired one, and no value reaches the integer clock out of range.
TEST(RobustnessCancel, AfterMsSaturatesAndTreatsNanAsExpired) {
  for (const double ms : {std::numeric_limits<double>::infinity(), 1e300,
                          kMaxDeadlineMs}) {
    const CancelToken t = CancelToken::after_ms(ms);
    EXPECT_FALSE(t.has_deadline()) << ms;
    EXPECT_FALSE(t.deadline_expired()) << ms;
    EXPECT_EQ(deadline_after_ms(ms), CancelToken::Clock::time_point::max());
  }
  const CancelToken near_max = CancelToken::after_ms(kMaxDeadlineMs / 2);
  EXPECT_TRUE(near_max.has_deadline());
  EXPECT_GT(near_max.remaining_ms(), kMaxDeadlineMs / 4);
  for (const double ms : {-std::numeric_limits<double>::infinity(), -1e300,
                          std::numeric_limits<double>::quiet_NaN()}) {
    const CancelToken t = CancelToken::after_ms(ms);
    EXPECT_TRUE(t.has_deadline()) << ms;
    EXPECT_TRUE(t.deadline_expired()) << ms;
    EXPECT_LT(t.remaining_ms(), 0.0) << ms;
    EXPECT_EQ(kind_of([&] { t.check(Stage::Service); }),
              Error::Kind::DeadlineExceeded)
        << ms;
  }
}

TEST(RobustnessCancel, PollAmortizesButStillTrips) {
  CancelSource src;
  const CancelToken t = src.token();
  std::uint32_t tick = 0;
  t.poll(tick, Stage::Simplify);  // armed but untripped: no throw
  src.request_cancel();
  std::uint32_t tripped = 0;
  EXPECT_EQ(kind_of([&] {
              for (std::uint32_t i = 0; i < 2 * CancelToken::kPollStride; ++i) {
                t.poll(tick, Stage::Simplify);
                ++tripped;
              }
            }),
            Error::Kind::Cancelled);
  // The amortization window is bounded: the trip came within one stride.
  EXPECT_LE(tripped, CancelToken::kPollStride);
}

TEST(RobustnessCancel, ParentChainPropagatesCancelAndTightestDeadline) {
  CancelSource parent;
  CancelSource child(parent.token());
  EXPECT_FALSE(child.token().cancel_requested());
  parent.request_cancel();
  EXPECT_TRUE(child.token().cancel_requested());

  CancelSource tight(5.0);
  CancelSource loose(60'000.0, tight.token());
  // The effective deadline is the tightest along the chain.
  EXPECT_LT(loose.token().remaining_ms(), 1'000.0);
}

TEST(RobustnessCancel, ExtendDeadlineRelaxesMonotonically) {
  CancelSource src(1.0);
  src.extend_deadline(Clock::now() + 60s);
  std::this_thread::sleep_for(5ms);
  EXPECT_FALSE(src.token().deadline_expired());
  // Extension is monotonic: a tighter "extension" is ignored.
  src.extend_deadline(Clock::now() - 1s);
  EXPECT_FALSE(src.token().deadline_expired());
  // max() removes the deadline entirely.
  src.extend_deadline(Clock::time_point::max());
  EXPECT_FALSE(src.token().has_deadline());
}

TEST(RobustnessCancel, WithGroupPreservesKind) {
  const Error e(Error::Kind::DeadlineExceeded, Stage::Simplify, "late");
  const Error g = with_group(e, 7);
  EXPECT_EQ(g.kind(), Error::Kind::DeadlineExceeded);
  EXPECT_EQ(g.group(), 7u);
  EXPECT_NE(std::string(g.what()).find("deadline-exceeded"),
            std::string::npos);
}

// --- compiler-level cancellation -------------------------------------------

TEST(RobustnessCompiler, PreCancelledCompileFailsFast) {
  CancelSource src;
  src.request_cancel();
  PhoenixOptions opt;
  opt.cancel = src.token();
  const auto& b = lih_bk();
  const auto t0 = Clock::now();
  EXPECT_EQ(kind_of([&] { phoenix_compile(b.terms, b.num_qubits, opt); }),
            Error::Kind::Cancelled);
  EXPECT_LT(ms_since(t0), 1'000.0);  // entry check, not a full compile
}

TEST(RobustnessCompiler, ExpiredDeadlineFailsFast) {
  PhoenixOptions opt;
  opt.cancel = CancelToken::after_ms(-1.0);
  const auto t0 = Clock::now();
  EXPECT_EQ(kind_of([&] {
              phoenix_compile(lih_bk().terms, lih_bk().num_qubits, opt);
            }),
            Error::Kind::DeadlineExceeded);
  EXPECT_LT(ms_since(t0), 1'000.0);
}

TEST(RobustnessCompiler, MidCompileCancellationLatencyIsBounded) {
  // Cancel a running UCCSD compile (CH2, the largest seed molecule) from
  // another thread and measure how long the stage loops take to notice.
  // Product target: < 50 ms; asserted with sanitizer slack.
  const UccsdBenchmark b =
      generate_uccsd(Molecule::ch2(), true, FermionEncoding::BravyiKitaev);
  CancelSource src;
  PhoenixOptions opt;
  opt.cancel = src.token();
  opt.peephole = PeepholeLevel::O3;
  opt.num_threads = 1;

  std::atomic<bool> done{false};
  std::atomic<double> latency_ms{-1.0};
  Error::Kind kind = Error::Kind::Failed;
  std::thread worker([&] {
    try {
      phoenix_compile(b.terms, b.num_qubits, opt);
    } catch (const Error& e) {
      kind = e.kind();
    }
    done.store(true);
  });
  std::this_thread::sleep_for(5ms);  // let it get into the stage loops
  const auto t0 = Clock::now();
  src.request_cancel();
  while (!done.load()) std::this_thread::sleep_for(100us);
  latency_ms.store(ms_since(t0));
  worker.join();
  if (kind == Error::Kind::Failed) {
    // The compile finished before the cancel landed — legal on a fast
    // machine, nothing to measure.
    GTEST_SKIP() << "compile completed before cancellation";
  }
  EXPECT_EQ(kind, Error::Kind::Cancelled);
  EXPECT_LT(latency_ms.load(), 500.0);
}

TEST(RobustnessCompiler, ArmedTokenDoesNotChangeTheCircuit) {
  // A live (far-future deadline) token must be invisible in the output:
  // bit-identical circuits with and without it.
  const auto& b = lih_bk();
  PhoenixOptions plain;
  plain.peephole = PeepholeLevel::O3;
  PhoenixOptions armed = plain;
  armed.cancel = CancelToken::after_ms(3'600'000.0);
  const auto base = phoenix_compile(b.terms, b.num_qubits, plain);
  const auto timed = phoenix_compile(b.terms, b.num_qubits, armed);
  expect_circuits_identical(base.circuit, timed.circuit);
}

// --- disk-cache crash safety ------------------------------------------------

Digest128 cache_key(const std::vector<PauliTerm>& terms, std::size_t nq) {
  return fingerprint_request(terms, nq, PhoenixOptions{}, nullptr);
}

TEST(RobustnessDisk, TornEntryIsQuarantinedAndRecompiled) {
  const TempDir dir("torn");
  const Digest128 k = cache_key(small_terms(), 4);
  auto value = std::make_shared<const CompileResult>(
      phoenix_compile(small_terms(), 4));
  const std::string path = entry_path(dir, k);
  {
    CacheOptions opt;
    opt.disk_dir = dir.str();
    CompileCache writer(opt);
    writer.put(k, value);
  }
  // Simulate a crash that tore the entry in half.
  const std::string full = read_file(path);
  ASSERT_FALSE(full.empty());
  write_file(path, full.substr(0, full.size() / 2));

  CacheOptions opt;
  opt.disk_dir = dir.str();
  CompileCache reader(opt);
  EXPECT_EQ(reader.get(k), nullptr);  // rejected, not parsed
  EXPECT_EQ(reader.counters().disk_rejects, 1u);
  EXPECT_FALSE(std::filesystem::exists(path));  // moved out of the way
  EXPECT_TRUE(std::filesystem::exists(path + ".quarantine"));

  // The slot is rewritable: a fresh put republishes a valid entry.
  reader.put(k, value);
  CompileCache second(opt);
  EXPECT_NE(second.get(k), nullptr);
}

TEST(RobustnessDisk, BitFlipInPayloadFailsTheChecksum) {
  const TempDir dir("bitflip");
  const Digest128 k = cache_key(small_terms(), 4);
  const std::string path = entry_path(dir, k);
  {
    CacheOptions opt;
    opt.disk_dir = dir.str();
    CompileCache writer(opt);
    writer.put(k, std::make_shared<const CompileResult>(
                      phoenix_compile(small_terms(), 4)));
  }
  std::string blob = read_file(path);
  ASSERT_GT(blob.size(), 16u);
  blob[blob.size() / 3] ^= 0x20;  // still printable; parser might accept it
  write_file(path, blob);

  CacheOptions opt;
  opt.disk_dir = dir.str();
  CompileCache reader(opt);
  EXPECT_EQ(reader.get(k), nullptr);
  EXPECT_EQ(reader.counters().disk_rejects, 1u);
  EXPECT_TRUE(std::filesystem::exists(path + ".quarantine"));
}

TEST(RobustnessDisk, FooterlessLegacyFileIsRejected) {
  const TempDir dir("legacy");
  const Digest128 k = cache_key(small_terms(), 4);
  // A pre-checksum-era entry: valid payload, no footer.
  const std::string path = entry_path(dir, k);
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  write_file(path, compile_result_to_bytes(phoenix_compile(small_terms(), 4)));
  CacheOptions opt;
  opt.disk_dir = dir.str();
  CompileCache reader(opt);
  EXPECT_EQ(reader.get(k), nullptr);
  EXPECT_EQ(reader.counters().disk_rejects, 1u);
}

TEST(RobustnessDisk, StaleTmpFilesAreSweptAtStartup) {
  const TempDir dir("sweep");
  // Unstamped legacy litter past the grace window: swept. Backdate the
  // mtime instead of sleeping through a real window.
  const std::string stale = dir.str() + "/deadbeef.phxc.tmp";
  write_file(stale, "half-written litter");
  std::filesystem::last_write_time(
      stale, std::filesystem::file_time_type::clock::now() -
                 std::chrono::hours(1));
  // A temp stamped with a provably-dead PID is swept regardless of age.
  pid_t dead_pid = ::fork();
  if (dead_pid == 0) ::_exit(0);
  ASSERT_GT(dead_pid, 0);
  ::waitpid(dead_pid, nullptr, 0);
  const std::string dead = dir.str() + "/cafe.phxc." +
                           std::to_string(dead_pid) +
                           "-00000000000000aa.tmp";
  write_file(dead, "crashed writer litter");

  CacheOptions opt;
  opt.disk_dir = dir.str();
  opt.sweep_grace_seconds = 120.0;
  CompileCache cache(opt);
  EXPECT_FALSE(std::filesystem::exists(stale));
  EXPECT_FALSE(std::filesystem::exists(dead));
}

// Regression (cross-process cache): the startup sweep used to delete EVERY
// `*.tmp` unconditionally, racing a second live process mid-write — its
// rename would then fail and the entry was silently lost. A temp stamped by
// a live PID inside the grace window must survive a concurrent sweep.
TEST(RobustnessDisk, SweepSparesLiveWritersTmpFiles) {
  const TempDir dir("sweeplive");
  const std::string live = dir.str() + "/beef.phxc." +
                           std::to_string(::getpid()) +
                           "-0000000000000001.tmp";
  write_file(live, "another process is mid-write here");
  // Unstamped but fresh: also inside the grace window, also spared.
  const std::string fresh = dir.str() + "/f00d.phxc.tmp";
  write_file(fresh, "fresh unstamped litter");

  CacheOptions opt;
  opt.disk_dir = dir.str();
  opt.sweep_grace_seconds = 3600.0;
  CompileCache cache(opt);
  EXPECT_TRUE(std::filesystem::exists(live));
  EXPECT_TRUE(std::filesystem::exists(fresh));

  // Once the writer is provably dead (or the grace window passes), a later
  // startup does reclaim the litter.
  std::filesystem::last_write_time(
      fresh, std::filesystem::file_time_type::clock::now() -
                 std::chrono::hours(2));
  CacheOptions strict = opt;
  strict.sweep_grace_seconds = 60.0;
  CompileCache second(strict);
  EXPECT_TRUE(std::filesystem::exists(live));   // PID still alive
  EXPECT_FALSE(std::filesystem::exists(fresh));  // grace window exceeded
}

TEST(RobustnessDisk, TransientWriteFailureIsRetried) {
  if (!fault::available()) GTEST_SKIP() << "built without PHOENIX_FAULT_INJECT";
  FaultGuard guard;
  const TempDir dir("wretry");
  const Digest128 k = cache_key(small_terms(), 4);
  CacheOptions opt;
  opt.disk_dir = dir.str();
  opt.disk_retry_backoff_ms = 0.0;
  CompileCache cache(opt);
  fault::enable("disk.write", {.times = 1});  // first attempt fails
  cache.put(k, std::make_shared<const CompileResult>(
                   phoenix_compile(small_terms(), 4)));
  EXPECT_GE(cache.counters().disk_retries, 1u);
  EXPECT_EQ(cache.counters().disk_write_failures, 0u);
  fault::reset();
  CompileCache fresh(opt);  // the retried write really landed
  EXPECT_NE(fresh.get(k), nullptr);
}

TEST(RobustnessDisk, ExhaustedWriteRetriesAreCountedNotFatal) {
  if (!fault::available()) GTEST_SKIP() << "built without PHOENIX_FAULT_INJECT";
  FaultGuard guard;
  const TempDir dir("wfail");
  const Digest128 k = cache_key(small_terms(), 4);
  CacheOptions opt;
  opt.disk_dir = dir.str();
  opt.disk_retry_limit = 1;
  opt.disk_retry_backoff_ms = 0.0;
  CompileCache cache(opt);
  fault::enable("disk.write", {});  // every attempt fails
  cache.put(k, std::make_shared<const CompileResult>(
                   phoenix_compile(small_terms(), 4)));
  EXPECT_EQ(cache.counters().disk_write_failures, 1u);
  EXPECT_FALSE(std::filesystem::exists(entry_path(dir, k)));
  EXPECT_NE(cache.get(k), nullptr);  // the in-memory entry still serves
}

TEST(RobustnessDisk, InjectedTornWriteIsCaughtOnRead) {
  if (!fault::available()) GTEST_SKIP() << "built without PHOENIX_FAULT_INJECT";
  FaultGuard guard;
  const TempDir dir("itorn");
  const Digest128 k = cache_key(small_terms(), 4);
  CacheOptions opt;
  opt.disk_dir = dir.str();
  {
    CompileCache writer(opt);
    fault::enable("disk.torn", {.times = 1});
    writer.put(k, std::make_shared<const CompileResult>(
                      phoenix_compile(small_terms(), 4)));
    EXPECT_EQ(fault::fired("disk.torn"), 1u);
  }
  fault::reset();
  CompileCache reader(opt);
  EXPECT_EQ(reader.get(k), nullptr);
  EXPECT_EQ(reader.counters().disk_rejects, 1u);
}

TEST(RobustnessDisk, TransientReadFailureIsRetried) {
  if (!fault::available()) GTEST_SKIP() << "built without PHOENIX_FAULT_INJECT";
  FaultGuard guard;
  const TempDir dir("rretry");
  const Digest128 k = cache_key(small_terms(), 4);
  CacheOptions opt;
  opt.disk_dir = dir.str();
  opt.disk_retry_backoff_ms = 0.0;
  {
    CompileCache writer(opt);
    writer.put(k, std::make_shared<const CompileResult>(
                      phoenix_compile(small_terms(), 4)));
  }
  CompileCache reader(opt);
  fault::enable("disk.read", {.times = 1});  // first read attempt fails
  EXPECT_NE(reader.get(k), nullptr);
  EXPECT_GE(reader.counters().disk_retries, 1u);
}

// --- service: deadlines, shedding, mid-flight cancel ------------------------

CompileRequest tiny_request(double tag) {
  CompileRequest req;
  req.terms = {PauliTerm("XX", tag)};
  req.num_qubits = 2;
  return req;
}

TEST(RobustnessService, DefaultTicketIsInertNotUndefined) {
  CompileService::Ticket t;
  EXPECT_FALSE(t.ready());
  EXPECT_FALSE(t.cancel());
  EXPECT_EQ(t.fingerprint(), Digest128{});
  EXPECT_THROW(t.get(), Error);
  CompileService::Ticket copy = t;  // copying an empty ticket is also fine
  EXPECT_FALSE(copy.ready());
}

TEST(RobustnessService, ExpiredDeadlineYieldsStructuredErrorInBoundedTime) {
  // Real compiler, already-expired deadline: whichever side notices first
  // (the compile's entry check or the ticket's wait), the caller gets a
  // structured DeadlineExceeded in bounded time.
  CompileService svc;
  CompileRequest req;
  req.terms = lih_bk().terms;
  req.num_qubits = lih_bk().num_qubits;
  req.deadline_ms = -1.0;  // already expired at submission
  auto ticket = svc.submit(req);
  const auto t0 = Clock::now();
  EXPECT_EQ(kind_of([&] { ticket.get(); }), Error::Kind::DeadlineExceeded);
  EXPECT_LT(ms_since(t0), 1'000.0);
  // The verdict is sticky.
  EXPECT_EQ(kind_of([&] { ticket.get(); }), Error::Kind::DeadlineExceeded);
  EXPECT_TRUE(ticket.ready());
}

// Regression: deadline_ms == 0 used to be the "no deadline" magic value, so
// a request arriving with an exhausted budget would wait forever. 0 now
// means "already expired" (immediate DeadlineExceeded on the wait path) and
// the unset default is the explicit kNoDeadline sentinel.
TEST(RobustnessService, ZeroDeadlineMeansAlreadyExpired) {
  CompileService svc;
  CompileRequest req;
  req.terms = lih_bk().terms;
  req.num_qubits = lih_bk().num_qubits;
  req.deadline_ms = 0.0;
  auto ticket = svc.submit(req);
  const auto t0 = Clock::now();
  EXPECT_EQ(kind_of([&] { ticket.get(); }), Error::Kind::DeadlineExceeded);
  EXPECT_LT(ms_since(t0), 1'000.0);
  // The sync path agrees: a cold compile with a zero budget fails, it does
  // not run to completion.
  EXPECT_EQ(kind_of([&] { svc.compile(req); }),
            Error::Kind::DeadlineExceeded);
}

TEST(RobustnessService, NoDeadlineSentinelWaitsForCompletion) {
  CompileRequest req = tiny_request(3.5);
  // The unset default is the sentinel, not 0.
  EXPECT_EQ(req.deadline_ms, CompileRequest::kNoDeadline);
  CompileService svc;
  auto ticket = svc.submit(req);
  EXPECT_NE(ticket.get(), nullptr);  // waits for the compile, no timeout
}

TEST(RobustnessService, ExpiredDeadlineStillServesACacheHit) {
  // A resident result costs no wait, so even a zero budget is served — the
  // deadline bounds waiting, not cache lookups.
  CompileRequest req = tiny_request(4.5);
  CompileService svc;
  ASSERT_NE(svc.compile(req), nullptr);  // warm the cache
  req.deadline_ms = 0.0;
  auto ticket = svc.submit(req);
  EXPECT_NE(ticket.get(), nullptr);
}

TEST(RobustnessService, TicketDeadlineAbandonsAStuckCompile) {
  // The compile blocks past the deadline, so the ticket's own wait must be
  // the side that gives up — exercising the timeout bookkeeping.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  ServiceOptions opt;
  opt.num_threads = 1;
  CompileService svc(opt, [&](const CompileRequest& req) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
    CompileResult r;
    r.circuit = Circuit(req.num_qubits);
    return r;
  });
  CompileRequest req = tiny_request(1.0);
  req.deadline_ms = 50.0;
  auto ticket = svc.submit(req);
  EXPECT_EQ(kind_of([&] { ticket.get(); }), Error::Kind::DeadlineExceeded);
  EXPECT_EQ(svc.stats().timeouts, 1u);
  EXPECT_FALSE(ticket.cancel());  // already abandoned: nothing to release
  EXPECT_EQ(kind_of([&] { ticket.get(); }), Error::Kind::DeadlineExceeded);
  EXPECT_EQ(svc.stats().timeouts, 1u);  // recorded exactly once
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
}

TEST(RobustnessService, SyncJoinRespectsItsOwnDeadline) {
  // A sync request that joins a stuck flight must give up at its deadline
  // even though the flight itself never resolves until released.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  ServiceOptions opt;
  opt.num_threads = 1;
  CompileService svc(opt, [&](const CompileRequest& req) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
    CompileResult r;
    r.circuit = Circuit(req.num_qubits);
    return r;
  });
  auto stuck = svc.submit(tiny_request(1.0));
  while (svc.stats().queue_depth != 0) std::this_thread::sleep_for(1ms);
  CompileRequest joiner = tiny_request(1.0);
  joiner.deadline_ms = 50.0;
  EXPECT_EQ(kind_of([&] { svc.compile(joiner); }),
            Error::Kind::DeadlineExceeded);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  EXPECT_NE(stuck.get(), nullptr);  // the original waiter is unaffected
  EXPECT_EQ(svc.stats().timeouts, 1u);
}

TEST(RobustnessService, QueueFullRejectsWithOverloaded) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  ServiceOptions opt;
  opt.num_threads = 1;
  opt.max_queue = 1;
  CompileService svc(opt, [&](const CompileRequest& req) {
    if (req.terms[0].coeff == 0.0) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });
    }
    CompileResult r;
    r.circuit = Circuit(req.num_qubits);
    return r;
  });
  auto gate = svc.submit(tiny_request(0.0));  // occupies the single worker
  while (svc.stats().queue_depth != 0) std::this_thread::sleep_for(1ms);
  auto queued = svc.submit(tiny_request(1.0));  // fills the one queue slot
  // Same priority: no shedding, the incoming submission is rejected.
  EXPECT_EQ(kind_of([&] { svc.submit(tiny_request(2.0)); }),
            Error::Kind::Overloaded);
  EXPECT_EQ(svc.stats().rejected, 1u);
  // Joining the queued flight is still allowed (no new queue slot).
  auto joined = svc.submit(tiny_request(1.0));
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  EXPECT_NE(gate.get(), nullptr);
  EXPECT_NE(queued.get(), nullptr);
  EXPECT_EQ(joined.get(), queued.get());
}

TEST(RobustnessService, SyncCompileIsExemptFromAdmission) {
  // A synchronous compile runs its new flight on the calling thread: a full
  // admission queue neither rejects it nor gives it a queue slot.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  ServiceOptions opt;
  opt.num_threads = 1;
  opt.max_queue = 1;
  CompileService svc(opt, [&](const CompileRequest& req) {
    if (req.terms[0].coeff == 0.0) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });
    }
    CompileResult r;
    r.circuit = Circuit(req.num_qubits);
    return r;
  });
  auto gate = svc.submit(tiny_request(0.0));  // occupies the single worker
  while (svc.stats().queue_depth != 0) std::this_thread::sleep_for(1ms);
  auto queued = svc.submit(tiny_request(1.0));  // fills the one queue slot
  EXPECT_NE(svc.compile(tiny_request(2.0)), nullptr);
  EXPECT_EQ(svc.stats().rejected, 0u);
  EXPECT_EQ(svc.stats().queue_depth, 1u);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  EXPECT_NE(gate.get(), nullptr);
  EXPECT_NE(queued.get(), nullptr);
}

TEST(RobustnessService, HigherPrioritySubmissionShedsLowerPriorityFlight) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  ServiceOptions opt;
  opt.num_threads = 1;
  opt.max_queue = 1;
  CompileService svc(opt, [&](const CompileRequest& req) {
    if (req.terms[0].coeff == 0.0) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });
    }
    CompileResult r;
    r.circuit = Circuit(req.num_qubits);
    return r;
  });
  auto gate = svc.submit(tiny_request(0.0), 0);
  while (svc.stats().queue_depth != 0) std::this_thread::sleep_for(1ms);
  auto doomed = svc.submit(tiny_request(1.0), 0);
  auto vip = svc.submit(tiny_request(2.0), 5);  // sheds the queued flight
  EXPECT_EQ(kind_of([&] { doomed.get(); }), Error::Kind::Overloaded);
  EXPECT_EQ(svc.stats().rejected, 1u);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  EXPECT_NE(gate.get(), nullptr);
  EXPECT_NE(vip.get(), nullptr);
  // The shed fingerprint is compilable again afterwards.
  EXPECT_NE(svc.submit(tiny_request(1.0)).get(), nullptr);
}

TEST(RobustnessService, LastCancelAbortsTheRunningCompile) {
  // The compile spins until its token trips: only a real mid-flight
  // cancellation can end this test.
  std::atomic<bool> entered{false};
  std::atomic<bool> exited{false};
  ServiceOptions opt;
  opt.num_threads = 1;
  CompileService svc(opt, [&](const CompileRequest& req) -> CompileResult {
    entered.store(true);
    struct Flag {
      std::atomic<bool>& f;
      ~Flag() { f.store(true); }
    } flag{exited};
    for (;;) {
      std::this_thread::sleep_for(100us);
      req.cancel.check(Stage::Service);
    }
  });
  auto ticket = svc.submit(tiny_request(1.0));
  while (!entered.load()) std::this_thread::sleep_for(1ms);
  const auto t0 = Clock::now();
  EXPECT_TRUE(ticket.cancel());
  while (!exited.load()) {
    ASSERT_LT(ms_since(t0), 10'000.0) << "mid-flight cancel never landed";
    std::this_thread::sleep_for(100us);
  }
  EXPECT_EQ(ticket.get(), nullptr);  // cancelled tickets resolve to null
  EXPECT_EQ(svc.stats().cancelled_midflight, 1u);
  EXPECT_EQ(svc.stats().cancelled, 1u);
}

TEST(RobustnessService, SyncCompileHoldsItsFlightAgainstAJoinersCancel) {
  // The synchronous caller keeps its interest in the flight it runs, so a
  // joiner's cancel drops only the joiner: the compile is not aborted (the
  // compile checks its token after the gate) and the caller gets its result.
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool release = false;
  ServiceOptions opt;
  opt.num_threads = 1;
  CompileService svc(opt, [&](const CompileRequest& req) {
    {
      std::unique_lock<std::mutex> lock(mu);
      entered = true;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    }
    req.cancel.check(Stage::Service);
    CompileResult r;
    r.circuit = Circuit(req.num_qubits);
    return r;
  });
  CompileService::ResultPtr sync_result;
  std::thread caller([&] {
    try {
      sync_result = svc.compile(tiny_request(1.0));
    } catch (const Error&) {
      // Left null: the expectation below reports it.
    }
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered; });
  }
  auto joiner = svc.submit(tiny_request(1.0));
  EXPECT_EQ(svc.stats().inflight_joins, 1u);
  EXPECT_FALSE(joiner.cancel());
  EXPECT_EQ(svc.stats().cancelled, 1u);
  EXPECT_EQ(svc.stats().cancelled_midflight, 0u);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  caller.join();
  EXPECT_NE(sync_result, nullptr);
  EXPECT_EQ(joiner.get(), nullptr);
}

TEST(RobustnessService, CancelledWaiterDoesNotReleaseAgainAtItsDeadline) {
  // A submission cancelled while its get() waits on a shared flight has
  // dropped its interest already. When that wait then reaches the deadline
  // it must not drop it a second time: that would take the other joiner's
  // interest and cancel the compile under it.
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool release = false;
  ServiceOptions opt;
  opt.num_threads = 1;
  CompileService svc(opt, [&](const CompileRequest& req) {
    {
      std::unique_lock<std::mutex> lock(mu);
      entered = true;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    }
    req.cancel.check(Stage::Service);
    CompileResult r;
    r.circuit = Circuit(req.num_qubits);
    return r;
  });
  auto patient = svc.submit(tiny_request(1.0));
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered; });
  }
  CompileRequest hasty_req = tiny_request(1.0);
  hasty_req.deadline_ms = 100.0;
  auto hasty = svc.submit(hasty_req);  // joins the running flight
  std::thread waiter([&] {
    try {
      hasty.get();  // DeadlineExceeded, or nullptr had the cancel come first
    } catch (const Error&) {
    }
  });
  std::this_thread::sleep_for(20ms);  // let the waiter block in get()
  EXPECT_FALSE(hasty.cancel());  // the patient submission keeps the flight
  waiter.join();
  EXPECT_EQ(svc.stats().cancelled_midflight, 0u);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  EXPECT_NE(patient.get(), nullptr);
}

TEST(RobustnessService, CancellationStormLeavesServiceServiceable) {
  // Many threads submit the same fingerprint and immediately cancel. No
  // deadlock, no crash, and the service still compiles afterwards.
  ServiceOptions opt;
  opt.num_threads = 2;
  std::atomic<int> compiles{0};
  CompileService svc(opt, [&](const CompileRequest& req) {
    compiles.fetch_add(1);
    std::this_thread::sleep_for(1ms);
    req.cancel.check(Stage::Service);
    CompileResult r;
    r.circuit = Circuit(req.num_qubits);
    return r;
  });
  constexpr int kThreads = 8;
  constexpr int kRounds = 20;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        auto ticket = svc.submit(tiny_request(static_cast<double>(r % 3)));
        if ((t + r) % 2 == 0) {
          ticket.cancel();
        } else {
          try {
            ticket.get();
          } catch (const Error&) {
            // A storm-cancelled flight may surface Cancelled to a joiner
            // whose own cancel lost the race; that is the documented
            // contract, not a failure.
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto after = svc.compile(small_terms(), 4);
  EXPECT_NE(after, nullptr);
  EXPECT_GE(compiles.load(), 1);
}

TEST(RobustnessService, InjectedCompileThrowReachesEveryJoiner) {
  if (!fault::available()) GTEST_SKIP() << "built without PHOENIX_FAULT_INJECT";
  FaultGuard guard;
  ServiceOptions opt;
  opt.num_threads = 1;
  CompileService svc(opt);
  fault::enable("compile.slow", {.sleep_ms = 200.0});
  fault::enable("compile.throw", {.times = 1});
  auto a = svc.submit(tiny_request(1.0));
  auto b = svc.submit(tiny_request(1.0));  // joins the same flight
  EXPECT_THROW(a.get(), Error);
  EXPECT_THROW(b.get(), Error);
  fault::reset();
  // Failures are not cached: the same request now compiles cleanly.
  EXPECT_NE(svc.submit(tiny_request(1.0)).get(), nullptr);
  EXPECT_GE(svc.stats().faults_injected, 2u);  // slow + throw both fired
}

}  // namespace
}  // namespace phoenix
