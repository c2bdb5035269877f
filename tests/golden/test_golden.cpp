// Golden corpus: a digest of every circuit the compiler produces for a fixed
// set of named cases, committed in tests/golden/corpus.txt. A compiler
// rewrite that claims bit-identical output proves it here.
//
// Each case is its own test instance (ctest runs them as parallel
// processes). Every instance merges its actual digest into the build tree's
// copy of the corpus, <build>/tests/golden/corpus.txt, so after a run that
// file is the complete actual map; when a change of output is intended,
// check the mismatches and copy that file over tests/golden/corpus.txt.
//
// The cases live in their own small test binary: a process of the main
// suite spends most of its start-up building other suites' parameters.

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "hamlib/qaoa.hpp"
#include "hamlib/uccsd.hpp"
#include "mapping/topology.hpp"
#include "phoenix/compiler.hpp"

namespace phoenix {
namespace {

// --- the digest ---------------------------------------------------------------

/// Params are hashed by their bits through write_u64, so the digest does not
/// depend on how Hash128 treats doubles.
void hash_gate(Hash128& h, const Gate& g) {
  h.write_u64(static_cast<std::uint64_t>(g.kind));
  h.write_size(g.q0);
  h.write_size(g.q1);
  h.write_u64(std::bit_cast<std::uint64_t>(g.param));
  h.write_size(g.sub.size());
  for (const Gate& s : g.sub) hash_gate(h, s);
}

void hash_circuit(Hash128& h, const Circuit& c) {
  h.write_size(c.num_qubits());
  h.write_size(c.size());
  for (const Gate& g : c.gates()) hash_gate(h, g);
}

void hash_layout(Hash128& h, const std::vector<std::size_t>& layout) {
  h.write_size(layout.size());
  for (const std::size_t v : layout) h.write_size(v);
}

/// What a compile produced: both circuits, both layouts and the SWAP count.
/// Diagnostics, validation and stats are not part of it.
Digest128 result_digest(const CompileResult& r) {
  Hash128 h;
  hash_circuit(h, r.circuit);
  hash_circuit(h, r.logical);
  hash_layout(h, r.initial_layout);
  hash_layout(h, r.final_layout);
  h.write_size(r.num_swaps);
  return h.digest();
}

// --- the cases ----------------------------------------------------------------

struct Program {
  std::vector<PauliTerm> terms;
  std::size_t num_qubits = 0;
};

/// One suite entry, named like generate_uccsd names it. Built without
/// generating the programs: case names are needed at test registration.
struct UccsdEntry {
  std::string name;
  Molecule mol;
  bool frozen;
  FermionEncoding enc;
  std::size_t num_qubits;
};

std::vector<UccsdEntry> uccsd_entries() {
  std::vector<UccsdEntry> out;
  for (const Molecule& mol :
       {Molecule::ch2(), Molecule::h2o(), Molecule::lih(), Molecule::nh()})
    for (const bool frozen : {false, true})
      for (const FermionEncoding enc :
           {FermionEncoding::BravyiKitaev, FermionEncoding::JordanWigner})
        out.push_back(
            {mol.name + (frozen ? "_frz_" : "_cmplt_") +
                 (enc == FermionEncoding::BravyiKitaev ? "BK" : "JW"),
             mol, frozen, enc,
             (frozen ? mol.frozen_core() : mol).n_spin_orbitals()});
  return out;
}

Program uccsd_program(const std::string& name) {
  for (const UccsdEntry& e : uccsd_entries()) {
    if (e.name != name) continue;
    UccsdBenchmark b = generate_uccsd(e.mol, e.frozen, e.enc);
    EXPECT_EQ(b.name, name);
    return {std::move(b.terms), b.num_qubits};
  }
  ADD_FAILURE() << "no UCCSD entry " << name;
  return {};
}

/// 4-12 qubits, 5-40 terms. Half the terms reuse an earlier term's support,
/// so groups hold several strings and the BSF search has work to do.
Program random_program(std::uint64_t seed) {
  Rng rng(seed);
  Program p;
  p.num_qubits = 4 + rng.next_below(9);
  const std::size_t count = 5 + rng.next_below(36);
  for (std::size_t t = 0; t < count; ++t) {
    BitVec support(p.num_qubits);
    if (!p.terms.empty() && rng.next_below(2) == 0) {
      support = p.terms[rng.next_below(p.terms.size())].string.support_mask();
    } else {
      const std::size_t weight =
          1 + rng.next_below(std::min<std::size_t>(p.num_qubits, 5));
      while (support.popcount() < weight)
        support.set(rng.next_below(p.num_qubits), true);
    }
    PauliString s(p.num_qubits);
    for (const std::size_t q : support.ones())
      s.set_op(q, static_cast<Pauli>(1 + rng.next_below(3)));
    p.terms.emplace_back(std::move(s), rng.next_range(-1.0, 1.0));
  }
  return p;
}

constexpr std::size_t kRandomPrograms = 200;

/// A case is a program plus options; `program` selects the program family
/// ("uccsd", "qaoa" or "random") and `entry` the member. Hardware-aware
/// cases compile onto the 65-qubit heavy-hex device, which the test body
/// builds (registration only needs the names).
struct GoldenCase {
  std::string name;
  std::string program;
  std::string entry;
  PhoenixOptions opt;
};

PhoenixOptions options(PeepholeLevel peephole,
                       ResynthLevel resynth = ResynthLevel::Off,
                       bool routed = false,
                       TwoQubitIsa isa = TwoQubitIsa::Cnot) {
  PhoenixOptions opt;
  opt.peephole = peephole;
  opt.resynth = resynth;
  opt.isa = isa;
  opt.hardware_aware = routed;
  opt.num_threads = 1;
  opt.validation.level = ValidationLevel::Off;
  return opt;
}

std::vector<GoldenCase> golden_cases() {
  using P = PeepholeLevel;
  using R = ResynthLevel;
  std::vector<GoldenCase> out;
  const auto entries = uccsd_entries();
  for (const UccsdEntry& e : entries) {
    out.push_back({"uccsd_own_" + e.name, "uccsd", e.name, options(P::Own)});
    out.push_back({"uccsd_o3_" + e.name, "uccsd", e.name, options(P::O3)});
  }
  for (const UccsdEntry& e : entries) {
    if (e.num_qubits > 12) continue;
    out.push_back({"o4_logical_" + e.name, "uccsd", e.name,
                   options(P::O3, R::Logical)});
    out.push_back({"heavyhex_o3_" + e.name, "uccsd", e.name,
                   options(P::O3, R::Off, true)});
    out.push_back({"heavyhex_o4_routed_" + e.name, "uccsd", e.name,
                   options(P::O3, R::Routed, true)});
  }
  for (const char* name : {"Rand-16", "Rand-20", "Rand-24", "Reg3-16",
                           "Reg3-20", "Reg3-24"}) {
    std::string id = std::string("qaoa_") + name;
    std::replace(id.begin(), id.end(), '-', '_');
    out.push_back({id, "qaoa", name, options(P::Own, R::Off, true)});
  }
  for (const char* name : {"LiH_frz_BK", "LiH_frz_JW"})
    out.push_back({std::string("su4_") + name, "uccsd", name,
                   options(P::Own, R::Off, false, TwoQubitIsa::Su4)});
  for (const char* name : {"NH_frz_BK", "NH_frz_JW"})
    out.push_back({std::string("su4_heavyhex_") + name, "uccsd", name,
                   options(P::O3, R::Off, true, TwoQubitIsa::Su4)});
  for (std::size_t k = 0; k < kRandomPrograms; ++k) {
    char id[16];
    std::snprintf(id, sizeof id, "random_%03zu", k);
    out.push_back({id, "random", std::to_string(k),
                   options(k % 2 == 0 ? P::Own : P::O3)});
  }
  return out;
}

Program program_of(const GoldenCase& c) {
  if (c.program == "uccsd") return uccsd_program(c.entry);
  if (c.program == "qaoa") {
    for (QaoaBenchmark& q : qaoa_suite())
      if (q.name == c.entry) return {std::move(q.terms), q.num_qubits};
    ADD_FAILURE() << "no QAOA entry " << c.entry;
    return {};
  }
  return random_program(std::stoull(c.entry));
}

// --- the corpus file ----------------------------------------------------------

using Corpus = std::map<std::string, std::string>;  // case name -> digest hex

constexpr const char* kHeader =
    "# Golden corpus: case name -> Hash128 of circuit, logical, layouts and\n"
    "# num_swaps (tests/golden/test_golden.cpp). Do not edit by hand; copy\n"
    "# <build>/tests/golden/corpus.txt here once a mismatch is explained.\n";

Corpus read_corpus(std::istream& in) {
  Corpus corpus;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, hex;
    fields >> name >> hex;
    corpus[name] = hex;
  }
  return corpus;
}

Corpus committed_corpus() {
  std::ifstream in(PHOENIX_GOLDEN_CORPUS);
  return read_corpus(in);
}

std::vector<std::string> case_names() {
  std::vector<std::string> names;
  for (const GoldenCase& c : golden_cases()) names.push_back(c.name);
  return names;
}

/// Merge one actual digest into the build tree's corpus under an exclusive
/// lock (parallel instances each merge their own line; closing the
/// descriptor releases it). A fresh file starts from the committed corpus;
/// lines of cases that no longer exist are dropped, so a full run leaves
/// exactly the actual map.
void record_actual(const std::string& name, const std::string& hex) {
  const std::filesystem::path path = PHOENIX_GOLDEN_ACTUAL;
  std::filesystem::create_directories(path.parent_path());
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  ASSERT_GE(fd, 0) << path;
  ::flock(fd, LOCK_EX);
  Corpus corpus;
  if (std::filesystem::file_size(path) > 0) {
    std::ifstream in(path);
    corpus = read_corpus(in);
  } else {
    corpus = committed_corpus();
  }
  corpus[name] = hex;
  const std::vector<std::string> names = case_names();
  std::ofstream out(path, std::ios::trunc);
  out << kHeader;
  for (const auto& [case_name, digest] : corpus)
    if (std::find(names.begin(), names.end(), case_name) != names.end())
      out << case_name << ' ' << digest << '\n';
  out.close();
  ::close(fd);
}

// --- the tests ----------------------------------------------------------------

class Golden : public ::testing::TestWithParam<std::string> {};

TEST_P(Golden, CircuitMatchesCorpus) {
  const auto cases = golden_cases();
  const auto it =
      std::find_if(cases.begin(), cases.end(),
                   [&](const GoldenCase& c) { return c.name == GetParam(); });
  ASSERT_NE(it, cases.end());
  const Program p = program_of(*it);
  ASSERT_FALSE(p.terms.empty());
  const Graph device = topology_manhattan();
  PhoenixOptions opt = it->opt;
  if (opt.hardware_aware) opt.coupling = &device;
  const std::string actual =
      result_digest(phoenix_compile(p.terms, p.num_qubits, opt)).hex();
  record_actual(it->name, actual);

  const Corpus corpus = committed_corpus();
  const auto want = corpus.find(it->name);
  ASSERT_NE(want, corpus.end())
      << "no corpus entry for " << it->name << "; the actual map is in "
      << PHOENIX_GOLDEN_ACTUAL;
  EXPECT_EQ(want->second, actual)
      << it->name << " compiles to a different circuit; the actual map is in "
      << PHOENIX_GOLDEN_ACTUAL;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, Golden, ::testing::ValuesIn(case_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// The committed corpus names exactly the cases above, so a deleted case
// cannot leave a stale line that no test checks.
TEST(GoldenCorpus, NamesExactlyTheCases) {
  const Corpus corpus = committed_corpus();
  std::vector<std::string> committed;
  for (const auto& [name, digest] : corpus) committed.push_back(name);
  std::vector<std::string> names = case_names();
  std::sort(names.begin(), names.end());
  EXPECT_EQ(committed, names);
}

}  // namespace
}  // namespace phoenix
