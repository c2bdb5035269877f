#include "spans.hpp"

#include <fstream>
#include <iomanip>
#include <stdexcept>

namespace wirebench {

Spans::Scope::Scope(Spans* spans, std::string name, std::uint64_t parent,
                    std::uint64_t request)
    : spans_(spans) {
  if (spans_ == nullptr) return;
  span_.name = std::move(name);
  span_.parent = parent;
  span_.request = request;
  {
    std::lock_guard<std::mutex> lk(spans_->mu_);
    span_.id = spans_->next_id_++;
  }
  span_.thread = spans_->thread_index();
  span_.start_us = spans_->now_us();
}

Spans::Scope::~Scope() {
  if (spans_ == nullptr) return;
  span_.end_us = spans_->now_us();
  std::lock_guard<std::mutex> lk(spans_->mu_);
  spans_->done_.push_back(std::move(span_));
}

double Spans::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::size_t Spans::thread_index() {
  std::lock_guard<std::mutex> lk(mu_);
  return threads_.emplace(std::this_thread::get_id(), threads_.size())
      .first->second;
}

std::vector<Spans::Span> Spans::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return done_;
}

std::map<std::uint64_t, double> Spans::self_ms(const std::vector<Span>& s) {
  std::map<std::uint64_t, const Span*> by_id;
  std::map<std::uint64_t, double> self;
  for (const Span& sp : s) {
    by_id[sp.id] = &sp;
    self[sp.id] = sp.dur_ms();
  }
  for (const Span& sp : s) {
    const auto parent = by_id.find(sp.parent);
    if (parent != by_id.end() && parent->second->thread == sp.thread)
      self[sp.parent] -= sp.dur_ms();
  }
  return self;
}

std::string Spans::layer(const std::string& name) {
  return name.substr(0, name.find('/'));
}

void Spans::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("wirebench: cannot write " + path);
  out << std::fixed << std::setprecision(3);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (const Span& sp : spans()) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\":\"" << sp.name << "\",\"cat\":\"" << layer(sp.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << sp.thread
        << ",\"ts\":" << sp.start_us << ",\"dur\":" << (sp.end_us - sp.start_us)
        << ",\"args\":{\"id\":" << sp.id << ",\"parent\":" << sp.parent
        << ",\"request\":" << sp.request << "}}";
  }
  out << "\n]}\n";
}

}  // namespace wirebench
