// The seeded request generator: a seed fixes the Submit payload stream
// byte for byte, another seed keeps every round's multiset of programs
// while changing the amplitudes and graphs the requests carry, and only
// the warm workload repeats a payload.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "workload.hpp"

namespace {

using wirebench::Request;
using wirebench::Workload;

std::vector<std::vector<Request>> rounds(Workload w, std::uint64_t seed) {
  return wirebench::make_rounds(wirebench::workload_spec(w), seed, 2);
}

std::vector<std::size_t> programs_of(const std::vector<Request>& round) {
  std::vector<std::size_t> p;
  for (const Request& r : round) p.push_back(r.program);
  std::sort(p.begin(), p.end());
  return p;
}

class Generator : public ::testing::TestWithParam<Workload> {};

TEST_P(Generator, SameSeedGivesByteIdenticalPayloadStream) {
  const auto a = rounds(GetParam(), 11);
  const auto b = rounds(GetParam(), 11);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    ASSERT_EQ(a[r].size(), b[r].size());
    for (std::size_t i = 0; i < a[r].size(); ++i) {
      EXPECT_EQ(a[r][i].program, b[r][i].program);
      EXPECT_EQ(*a[r][i].payload, *b[r][i].payload);
    }
  }
}

TEST_P(Generator, OtherSeedKeepsMultisetAndChangesInputs) {
  const Workload w = GetParam();
  const auto spec = wirebench::workload_spec(w);
  const auto a = rounds(w, 11);
  const auto b = rounds(w, 12);
  std::vector<std::size_t> expected;
  for (std::size_t p = 0; p < spec.programs.size(); ++p)
    expected.insert(expected.end(), spec.programs[p].weight, p);
  for (const auto* stream : {&a, &b})
    for (const auto& round : *stream) EXPECT_EQ(programs_of(round), expected);

  // Pair each program's first request under both seeds.
  for (std::size_t p = 0; p < spec.programs.size(); ++p) {
    const Request* ra = nullptr;
    const Request* rb = nullptr;
    for (const Request& r : a[1])
      if (r.program == p && ra == nullptr) ra = &r;
    for (const Request& r : b[1])
      if (r.program == p && rb == nullptr) rb = &r;
    ASSERT_NE(ra, nullptr);
    ASSERT_NE(rb, nullptr);
    if (!spec.fresh) {
      EXPECT_EQ(*ra->payload, *rb->payload) << spec.programs[p].name;
      continue;
    }
    EXPECT_NE(*ra->payload, *rb->payload) << spec.programs[p].name;
    // UCCSD keeps its Pauli strings (new amplitudes only); QAOA draws a new
    // random graph.
    if (spec.programs[p].uccsd)
      EXPECT_EQ(ra->structure, rb->structure) << spec.programs[p].name;
    else
      EXPECT_NE(ra->structure, rb->structure) << spec.programs[p].name;
  }
}

TEST_P(Generator, OnlyTheWarmWorkloadRepeatsPayloads) {
  const auto spec = wirebench::workload_spec(GetParam());
  std::map<std::size_t, std::set<std::string>> by_program;
  std::size_t requests = 0;
  for (const auto& round : rounds(GetParam(), 11))
    for (const Request& r : round) {
      by_program[r.program].insert(*r.payload);
      ++requests;
    }
  std::size_t distinct = 0;
  for (const auto& [program, payloads] : by_program) {
    distinct += payloads.size();
    if (!spec.fresh) EXPECT_EQ(payloads.size(), 1u);
  }
  EXPECT_EQ(distinct, spec.fresh ? requests : spec.programs.size());
}

INSTANTIATE_TEST_SUITE_P(Workloads, Generator,
                         ::testing::Values(Workload::VqaIterate,
                                           Workload::WarmReplay,
                                           Workload::HeavyhexChecked),
                         [](const auto& info) {
                           return std::string(
                               wirebench::workload_name(info.param));
                         });

}  // namespace
