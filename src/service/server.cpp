#include "service/server.hpp"

#include <atomic>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "service/net.hpp"

namespace phoenix {

namespace {

/// One live client connection. The reader thread owns frame decoding,
/// synchronous replies and warm hits; every cold Submit gets a waiter
/// thread that blocks in Ticket::get and sends the Result/ErrorReply when
/// the shared flight resolves. Writers interleave frames through
/// `write_mu`, so a multi-frame reply sequence stays intact under request
/// multiplexing.
struct Conn {
  net::Fd fd;
  std::mutex write_mu;
  std::thread reader;
  std::atomic<bool> closed{false};

  std::mutex tickets_mu;
  std::map<std::uint64_t, CompileService::Ticket> tickets;

  struct Waiter {
    std::thread th;
    std::shared_ptr<std::atomic<bool>> done;
  };
  std::mutex waiters_mu;
  std::vector<Waiter> waiters;
};

}  // namespace

struct ServedServer::Impl {
  ServerOptions opt;
  CompileService service;

  bool started = false;
  std::atomic<bool> stopping{false};
  net::Fd tcp_listener;
  net::Fd unix_listener;
  std::uint16_t bound_port = 0;
  std::vector<std::thread> acceptors;

  std::mutex conns_mu;
  std::vector<std::shared_ptr<Conn>> conns;

  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> connections{0};
  std::atomic<std::uint64_t> in_flight{0};
  std::atomic<std::uint64_t> bytes_in{0};
  std::atomic<std::uint64_t> bytes_out{0};
  std::atomic<std::uint64_t> frame_errors{0};
  std::atomic<std::uint64_t> submits{0};
  std::atomic<std::uint64_t> results{0};
  std::atomic<std::uint64_t> errors_sent{0};
  std::atomic<std::uint64_t> cancels{0};
  std::atomic<std::uint64_t> wire_hits{0};
  std::atomic<std::uint64_t> reply_batches{0};

  /// Wire-level reply memo: digest of the raw Submit PAYLOAD bytes -> the
  /// finished reply (fingerprint + shared serialized Result). A repeated
  /// byte-identical submission is answered without parsing the request,
  /// re-fingerprinting it, or touching the service at all — the dominant
  /// warm-path CPU on a hot fleet shard. Only Results sent from the warm
  /// path and not bound are memoized: errors, cancels and deadline misses
  /// always re-enter the service, and so do bound replies, since a VQA loop
  /// never resends its amplitudes (a repeat is bound again). The memo is
  /// disabled when a compile_fn test seam is installed so protocol tests
  /// observe exact service-level semantics. The request_id lives in the
  /// frame HEADER, not the payload, so all clients share entries regardless
  /// of their id sequences; priority and deadline are payload bytes, so
  /// requests differing there get their own entries instead of wrong
  /// answers.
  struct WireReply {
    std::string fingerprint_hex;
    std::shared_ptr<const std::string> result_bytes;
  };
  static constexpr std::size_t kWireMemoMaxEntries = 256;
  static constexpr std::size_t kWireMemoMaxBytes = 64ull << 20;
  std::mutex wire_mu;
  std::list<std::pair<Digest128, WireReply>> wire_lru;
  std::unordered_map<Digest128, decltype(wire_lru)::iterator, Digest128Hash>
      wire_map;
  std::size_t wire_bytes = 0;

  /// The memo key, hashed once per Submit and shared by lookup and store.
  static Digest128 wire_key(const std::string& payload) {
    Hash128 h(0x7068786d656d6full);  // "phxmemo"
    h.write_string(payload);
    return h.digest();
  }

  bool wire_lookup(const Digest128& key, WireReply* out) {
    if (opt.compile_fn) return false;
    std::lock_guard<std::mutex> lk(wire_mu);
    const auto it = wire_map.find(key);
    if (it == wire_map.end()) return false;
    wire_lru.splice(wire_lru.begin(), wire_lru, it->second);
    *out = it->second->second;
    return true;
  }

  void wire_store(const Digest128& key, std::string fingerprint_hex,
                  std::shared_ptr<const std::string> result_bytes) {
    if (opt.compile_fn) return;
    std::lock_guard<std::mutex> lk(wire_mu);
    if (wire_map.find(key) != wire_map.end()) return;
    wire_bytes += result_bytes->size();
    wire_lru.emplace_front(
        key, WireReply{std::move(fingerprint_hex), std::move(result_bytes)});
    wire_map.emplace(wire_lru.front().first, wire_lru.begin());
    while (wire_lru.size() > kWireMemoMaxEntries ||
           (wire_bytes > kWireMemoMaxBytes && wire_lru.size() > 1)) {
      wire_bytes -= wire_lru.back().second.result_bytes->size();
      wire_map.erase(wire_lru.back().first);
      wire_lru.pop_back();
    }
  }

  explicit Impl(ServerOptions o)
      : opt(std::move(o)), service(opt.service, opt.compile_fn) {}

  /// Send `bytes` now, or append them to the reader's per-chunk reply batch
  /// (flushed as ONE write after every frame in the chunk is handled).
  void emit(Conn& c, std::string bytes, std::string* batch) {
    if (batch != nullptr) {
      batch->append(bytes);
    } else {
      std::lock_guard<std::mutex> lk(c.write_mu);
      net::write_all(c.fd, bytes.data(), bytes.size());
    }
    bytes_out.fetch_add(bytes.size(), std::memory_order_relaxed);
  }

  void send_frame(Conn& c, FrameType type, std::uint64_t request_id,
                  const std::string& payload) {
    std::string bytes;
    append_frame(bytes, type, request_id, payload);
    emit(c, std::move(bytes), nullptr);
  }

  void send_error(Conn& c, std::uint64_t request_id, const Error& e) {
    send_frame(c, FrameType::ErrorReply, request_id, error_to_payload(e));
    errors_sent.fetch_add(1, std::memory_order_relaxed);
  }

  /// The one terminal reply for a submission, from the cold path's waiter
  /// thread and the warm path's reader alike: Result carrying
  /// Ticket::bytes() on success (a bound ticket's bytes as they are, never
  /// re-encoded), ErrorReply on failure, cancel or deadline. `bytes`
  /// may already hold the warm path's SubmitAck, which then rides the same
  /// write; `batch` is as in emit(). A `tracked` (cold) submission is
  /// retired from the connection first. Returns the Result payload, or
  /// nullptr when an ErrorReply went out.
  std::shared_ptr<const std::string> send_terminal(
      Conn& c, std::uint64_t request_id, CompileService::Ticket ticket,
      std::string bytes, std::string* batch, bool tracked) {
    std::shared_ptr<const std::string> result;
    try {
      result = ticket.bytes();
      if (result != nullptr) {
        append_frame(bytes, FrameType::Result, request_id, *result);
      } else {
        append_frame(bytes, FrameType::ErrorReply, request_id,
                     error_to_payload(Error(Error::Kind::Cancelled,
                                            Stage::Service,
                                            "submission cancelled")));
      }
    } catch (const Error& e) {
      append_frame(bytes, FrameType::ErrorReply, request_id,
                   error_to_payload(e));
    } catch (const std::exception& e) {
      append_frame(bytes, FrameType::ErrorReply, request_id,
                   error_to_payload(Error(Stage::Service, e.what())));
    }
    if (tracked) {
      // Retire BEFORE writing: the terminal reply is the client's license
      // to reuse the id (and to trust that Poll reports it unknown), so the
      // ticket must be gone by the time the reply can possibly be read.
      {
        std::lock_guard<std::mutex> lk(c.tickets_mu);
        c.tickets.erase(request_id);
      }
      in_flight.fetch_sub(1, std::memory_order_relaxed);
    }
    // Counted before the write, like the ticket retirement above, so a
    // client that reads the reply and then asks for stats sees it counted;
    // a failed write takes the count back.
    std::atomic<std::uint64_t>& sent =
        result != nullptr ? results : errors_sent;
    sent.fetch_add(1, std::memory_order_relaxed);
    try {
      emit(c, std::move(bytes), batch);
    } catch (...) {
      sent.fetch_sub(1, std::memory_order_relaxed);
      return nullptr;  // the peer is gone; its reader will notice
    }
    return result;
  }

  void handle_submit(const std::shared_ptr<Conn>& c, Frame f,
                     std::string* batch) {
    submits.fetch_add(1, std::memory_order_relaxed);

    // Wire-memo fast path: a byte-identical repeat of a memoized reply is
    // answered from the memo — no parse, no fingerprint, no service — with
    // the ack and Result coalesced into the reply batch.
    const Digest128 memo_key = wire_key(f.payload);
    WireReply memo;
    if (wire_lookup(memo_key, &memo)) {
      wire_hits.fetch_add(1, std::memory_order_relaxed);
      std::string bytes;
      append_frame(bytes, FrameType::SubmitAck, f.request_id,
                   "ack " + memo.fingerprint_hex + " 1");
      append_frame(bytes, FrameType::Result, f.request_id,
                   *memo.result_bytes);
      emit(*c, std::move(bytes), batch);
      results.fetch_add(1, std::memory_order_relaxed);
      return;
    }

    // A payload that fails to decode costs only its own request: framing
    // is intact, so it gets a Parse ErrorReply and the connection, with
    // whatever else is in flight on it, carries on.
    int priority = 0;
    CompileRequest req;
    std::optional<Error> malformed;
    try {
      req = compile_request_from_bytes(f.payload, priority);
    } catch (const Error& e) {
      malformed = e;
    } catch (const std::exception& e) {
      malformed = Error(Stage::Parse, std::string("phoenix-protocol: ") +
                                          e.what());
    }
    if (malformed) {
      frame_errors.fetch_add(1, std::memory_order_relaxed);
      send_error(*c, f.request_id, *malformed);
      return;
    }

    {
      std::lock_guard<std::mutex> lk(c->tickets_mu);
      if (c->tickets.count(f.request_id) != 0) {
        frame_errors.fetch_add(1, std::memory_order_relaxed);
        send_error(*c, f.request_id,
                   Error(Stage::Parse, "phoenix-protocol: duplicate "
                                       "in-flight request id"));
        return;
      }
      if (opt.max_inflight_per_conn > 0 &&
          c->tickets.size() >= opt.max_inflight_per_conn) {
        send_error(*c, f.request_id,
                   Error(Error::Kind::Overloaded, Stage::Service,
                         "per-connection in-flight limit of " +
                             std::to_string(opt.max_inflight_per_conn) +
                             " submissions reached"));
        return;
      }
    }

    CompileService::Ticket ticket;
    try {
      ticket = service.submit(std::move(req), priority);
    } catch (const Error& e) {
      send_error(*c, f.request_id, e);  // queue-full Overloaded, mostly
      return;
    }

    if (ticket.ready()) {
      // Warm path: answer on the reader thread — no waiter spawn, no ticket
      // bookkeeping — with the ack and the terminal frame coalesced into
      // one write. The Result is memoized for the wire fast path above
      // unless it was bound: a bound payload is not sent twice by a VQA
      // loop, and storing it would only evict replies that are.
      std::string fingerprint_hex = ticket.fingerprint().hex();
      std::string ack;
      append_frame(ack, FrameType::SubmitAck, f.request_id,
                   "ack " + fingerprint_hex + " 1");
      const bool bound = ticket.bound();
      auto result = send_terminal(*c, f.request_id, std::move(ticket),
                                  std::move(ack), batch, false);
      if (result != nullptr && !bound)
        wire_store(memo_key, std::move(fingerprint_hex), std::move(result));
      return;
    }

    in_flight.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lk(c->tickets_mu);
      c->tickets.emplace(f.request_id, ticket);
    }
    send_frame(*c, FrameType::SubmitAck, f.request_id,
               "ack " + ticket.fingerprint().hex() + " 0");

    // Reap waiters that already delivered before adding another, so a
    // long-lived connection holds O(in-flight) threads, not O(history).
    std::lock_guard<std::mutex> lk(c->waiters_mu);
    for (auto it = c->waiters.begin(); it != c->waiters.end();) {
      if (it->done->load(std::memory_order_acquire)) {
        it->th.join();
        it = c->waiters.erase(it);
      } else {
        ++it;
      }
    }
    auto done = std::make_shared<std::atomic<bool>>(false);
    const std::uint64_t request_id = f.request_id;
    std::thread th([this, c, request_id, ticket = std::move(ticket), done] {
      send_terminal(*c, request_id, ticket, std::string(), nullptr, true);
      done->store(true, std::memory_order_release);
    });
    c->waiters.push_back(Conn::Waiter{std::move(th), std::move(done)});
  }

  void handle_poll(Conn& c, const Frame& f) {
    bool known = false;
    bool ready = false;
    {
      std::lock_guard<std::mutex> lk(c.tickets_mu);
      const auto it = c.tickets.find(f.request_id);
      if (it != c.tickets.end()) {
        known = true;
        ready = it->second.ready();
      }
    }
    send_frame(c, FrameType::Status, f.request_id,
               std::string("status ") + (ready ? "1" : "0") + ' ' +
                   (known ? "1" : "0"));
  }

  void handle_cancel(Conn& c, const Frame& f) {
    cancels.fetch_add(1, std::memory_order_relaxed);
    CompileService::Ticket ticket;
    bool known = false;
    {
      std::lock_guard<std::mutex> lk(c.tickets_mu);
      const auto it = c.tickets.find(f.request_id);
      if (it != c.tickets.end()) {
        known = true;
        ticket = it->second;
      }
    }
    // The waiter observes the cancel through Ticket::get (nullptr) and sends
    // the Cancelled ErrorReply; this ack only reports whether the compile
    // was skipped or aborted on this submission's behalf.
    const bool cancelled = known && ticket.cancel();
    send_frame(c, FrameType::CancelAck, f.request_id,
               std::string("cancelled ") + (cancelled ? "1" : "0"));
  }

  void handle_stats(Conn& c, const Frame& f) {
    const ServerStats net = snapshot();
    const ServiceStats svc = service.stats();
    std::ostringstream out;
    out << "stat net.accepted " << net.accepted << '\n'
        << "stat net.connections " << net.connections << '\n'
        << "stat net.in_flight " << net.in_flight << '\n'
        << "stat net.bytes_in " << net.bytes_in << '\n'
        << "stat net.bytes_out " << net.bytes_out << '\n'
        << "stat net.frame_errors " << net.frame_errors << '\n'
        << "stat net.submits " << net.submits << '\n'
        << "stat net.results " << net.results << '\n'
        << "stat net.errors_sent " << net.errors_sent << '\n'
        << "stat net.cancels " << net.cancels << '\n'
        << "stat net.wire_hits "
        << wire_hits.load(std::memory_order_relaxed) << '\n'
        << "stat net.reply_batches "
        << reply_batches.load(std::memory_order_relaxed) << '\n'
        << "stat service.requests " << svc.requests << '\n'
        << "stat service.hits " << svc.hits << '\n'
        << "stat service.disk_hits " << svc.disk_hits << '\n'
        << "stat service.misses " << svc.misses << '\n'
        << "stat service.inflight_joins " << svc.inflight_joins << '\n'
        << "stat service.bind_hits " << svc.bind_hits << '\n'
        << "stat service.bind_fallbacks " << svc.bind_fallbacks << '\n'
        << "stat service.skeletons " << svc.skeletons << '\n'
        << "stat service.cancelled " << svc.cancelled << '\n'
        << "stat service.cancelled_midflight " << svc.cancelled_midflight
        << '\n'
        << "stat service.timeouts " << svc.timeouts << '\n'
        << "stat service.rejected " << svc.rejected << '\n'
        << "stat service.queue_depth " << svc.queue_depth << '\n';
    send_frame(c, FrameType::StatsReply, f.request_id, out.str());
  }

  void handle_frame(const std::shared_ptr<Conn>& c, Frame f,
                    std::string* batch) {
    switch (f.type) {
      case FrameType::Submit:
        handle_submit(c, std::move(f), batch);
        return;
      case FrameType::Poll:
        handle_poll(*c, f);
        return;
      case FrameType::Cancel:
        handle_cancel(*c, f);
        return;
      case FrameType::Stats:
        handle_stats(*c, f);
        return;
      default:
        break;
    }
    // Server-to-client frame types arriving at the server are a protocol
    // violation; answer structurally and keep the stream (framing is intact).
    frame_errors.fetch_add(1, std::memory_order_relaxed);
    send_error(*c, f.request_id,
               Error(Stage::Parse,
                     std::string("phoenix-protocol: unexpected frame type '") +
                         frame_type_name(f.type) + "' from client"));
  }

  void conn_loop(const std::shared_ptr<Conn>& c) {
    std::string buf;
    std::vector<char> chunk(64 * 1024);
    try {
      for (;;) {
        const std::size_t n = net::read_some(c->fd, chunk.data(), chunk.size());
        if (n == 0) break;  // EOF or shutdown
        bytes_in.fetch_add(n, std::memory_order_relaxed);
        buf.append(chunk.data(), n);
        std::size_t off = 0;
        Frame f;
        std::size_t consumed = 0;
        // Warm replies for every frame in this chunk coalesce into one
        // batched write: a pipelined client's N-submit burst costs the
        // server one reply syscall, not N.
        std::string batch;
        std::size_t frames = 0;
        while (decode_frame(buf.data() + off, buf.size() - off,
                            opt.max_frame_payload, f,
                            consumed) == DecodeResult::Frame) {
          off += consumed;
          ++frames;
          handle_frame(c, std::move(f), &batch);
        }
        buf.erase(0, off);
        if (!batch.empty()) {
          if (frames > 1)
            reply_batches.fetch_add(1, std::memory_order_relaxed);
          std::lock_guard<std::mutex> lk(c->write_mu);
          net::write_all(c->fd, batch.data(), batch.size());
        }
      }
    } catch (const Error& e) {
      // Framing is lost (bad magic/version/length) or the read failed hard.
      // Best-effort structured goodbye, then drop the connection.
      if (e.stage() == Stage::Parse)
        frame_errors.fetch_add(1, std::memory_order_relaxed);
      try {
        send_error(*c, 0, e);
      } catch (...) {
      }
    } catch (...) {
    }

    // The peer can no longer receive results: cancel whatever is still in
    // flight so abandoned compiles abort mid-stage instead of burning
    // workers, then wait for the waiter threads to retire.
    {
      std::lock_guard<std::mutex> lk(c->tickets_mu);
      for (auto& [id, ticket] : c->tickets) ticket.cancel();
    }
    c->fd.shutdown_both();
    {
      std::lock_guard<std::mutex> lk(c->waiters_mu);
      for (auto& w : c->waiters) w.th.join();
      c->waiters.clear();
    }
    connections.fetch_sub(1, std::memory_order_relaxed);
    c->closed.store(true, std::memory_order_release);
  }

  void accept_loop(net::Fd& listener) {
    for (;;) {
      net::Fd fd = net::accept_conn(listener);
      if (!fd.valid()) return;  // listener shut down
      if (stopping.load(std::memory_order_acquire)) return;
      accepted.fetch_add(1, std::memory_order_relaxed);
      connections.fetch_add(1, std::memory_order_relaxed);
      auto c = std::make_shared<Conn>();
      c->fd = std::move(fd);
      std::lock_guard<std::mutex> lk(conns_mu);
      // Reap connections whose reader already finished.
      for (auto it = conns.begin(); it != conns.end();) {
        if ((*it)->closed.load(std::memory_order_acquire)) {
          (*it)->reader.join();
          it = conns.erase(it);
        } else {
          ++it;
        }
      }
      c->reader = std::thread([this, c] { conn_loop(c); });
      conns.push_back(std::move(c));
    }
  }

  ServerStats snapshot() const {
    ServerStats s;
    s.accepted = accepted.load(std::memory_order_relaxed);
    s.connections = connections.load(std::memory_order_relaxed);
    s.in_flight = in_flight.load(std::memory_order_relaxed);
    s.bytes_in = bytes_in.load(std::memory_order_relaxed);
    s.bytes_out = bytes_out.load(std::memory_order_relaxed);
    s.frame_errors = frame_errors.load(std::memory_order_relaxed);
    s.submits = submits.load(std::memory_order_relaxed);
    s.results = results.load(std::memory_order_relaxed);
    s.errors_sent = errors_sent.load(std::memory_order_relaxed);
    s.cancels = cancels.load(std::memory_order_relaxed);
    return s;
  }

  void stop() {
    if (stopping.exchange(true)) {
      // Another stop() already ran (or is running) the teardown below;
      // nothing is left to release here.
      return;
    }
    // shutdown_both() wakes the acceptors out of accept(); the descriptors
    // are closed only once they have been joined, since they read them.
    tcp_listener.shutdown_both();
    unix_listener.shutdown_both();
    for (std::thread& t : acceptors) t.join();
    acceptors.clear();
    tcp_listener.reset();
    unix_listener.reset();

    std::vector<std::shared_ptr<Conn>> snapshot_conns;
    {
      std::lock_guard<std::mutex> lk(conns_mu);
      snapshot_conns.swap(conns);
    }
    for (const auto& c : snapshot_conns) {
      {
        std::lock_guard<std::mutex> lk(c->tickets_mu);
        for (auto& [id, ticket] : c->tickets) ticket.cancel();
      }
      c->fd.shutdown_both();
    }
    for (const auto& c : snapshot_conns)
      if (c->reader.joinable()) c->reader.join();
  }
};

ServedServer::ServedServer(ServerOptions opt)
    : impl_(std::make_unique<Impl>(std::move(opt))) {}

ServedServer::~ServedServer() { stop(); }

void ServedServer::start() {
  Impl& s = *impl_;
  if (s.started)
    throw Error(Stage::Service, "phoenix_served: start() called twice");
  if (!s.opt.enable_tcp && s.opt.unix_path.empty())
    throw Error(Stage::Io,
                "phoenix_served: no listener configured (enable TCP or set a "
                "unix socket path)");
  if (s.opt.enable_tcp) {
    s.tcp_listener = net::listen_tcp(s.opt.tcp_host, s.opt.tcp_port);
    s.bound_port = net::local_port(s.tcp_listener);
  }
  if (!s.opt.unix_path.empty())
    s.unix_listener = net::listen_unix(s.opt.unix_path);
  s.started = true;
  if (s.tcp_listener.valid())
    s.acceptors.emplace_back([&s] { s.accept_loop(s.tcp_listener); });
  if (s.unix_listener.valid())
    s.acceptors.emplace_back([&s] { s.accept_loop(s.unix_listener); });
}

void ServedServer::stop() { impl_->stop(); }

std::uint16_t ServedServer::tcp_port() const { return impl_->bound_port; }

CompileService& ServedServer::service() { return impl_->service; }

ServerStats ServedServer::stats() const { return impl_->snapshot(); }

}  // namespace phoenix
