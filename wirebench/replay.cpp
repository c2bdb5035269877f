#include "replay.hpp"

#include <memory>
#include <utility>
#include <vector>

#include "circuit/synthesis.hpp"
#include "common/thread_pool.hpp"
#include "hamlib/grouping.hpp"
#include "phoenix/compiler.hpp"
#include "phoenix/qaoa_router.hpp"
#include "phoenix/serialize.hpp"
#include "service/fingerprint.hpp"
#include "service/protocol.hpp"
#include "transpile/rebase.hpp"

namespace wirebench {

using namespace phoenix;

ReplayCounts replay_request(const std::string& payload, Spans& spans,
                            std::uint64_t request) {
  ReplayCounts out;
  CompileResult res;
  {
    Spans::Scope root(&spans, "replay", 0, request);
    const std::uint64_t rid = root.id();
    auto span = [&](const char* name, std::uint64_t parent) {
      return std::make_unique<Spans::Scope>(&spans, name, parent, request);
    };

    CompileRequest req;
    {
      auto s = span("service.request_decode", rid);
      int priority = 0;
      req = compile_request_from_bytes(payload, priority);
    }
    const Graph* coupling = req.coupling_graph();
    PhoenixOptions opt = req.options;
    opt.coupling = coupling;
    {
      auto s = span("service.fingerprint", rid);
      (void)fingerprint_request(req.terms, req.num_qubits, req.options,
                                coupling);
    }
    const std::vector<PauliTerm>& terms = req.terms;
    const std::size_t n = req.num_qubits;

    auto peephole = [&](Circuit& c, bool o3, std::uint64_t parent) {
      auto s = span("transpile.peephole", parent);
      const std::size_t before = c.size();
      if (o3)
        optimize_o3(c, opt.peephole_engine);
      else
        optimize_o2(c, opt.peephole_engine);
      if (c.size() < before) out.gates_removed += before - c.size();
    };
    auto resynth = [&](Circuit& c, const Graph* g) {
      auto s = span("resynth", rid);
      ResynthOptions ropt;
      ropt.coupling = g;
      const ResynthStats st = resynthesize_clifford_regions(c, ropt);
      out.resynth_regions += st.regions;
      out.resynth_accepted += st.accepted;
      if (st.accepted > 0)
        peephole(c, opt.peephole == PeepholeLevel::O3, s->id());
    };

    if (opt.hardware_aware && terms.size() <= 4096 &&
        is_commuting_two_local(terms)) {
      Circuit routed(n);
      {
        auto s = span("mapping.route", rid);
        QaoaRouteResult r = route_commuting_two_local(terms, n, *coupling);
        res.num_groups = terms.size();
        res.num_swaps = r.num_swaps;
        res.initial_layout = std::move(r.initial_layout);
        res.final_layout = std::move(r.final_layout);
        Circuit logical(n);
        for (const auto& t : terms) append_pauli_rotation(logical, t);
        res.logical = std::move(logical);
        routed = std::move(r.circuit);
      }
      if (opt.resynth == ResynthLevel::Routed) resynth(routed, coupling);
      res.circuit = opt.isa == TwoQubitIsa::Su4 ? rebase_su4(routed)
                                                : std::move(routed);
    } else {
      std::vector<IrGroup> groups;
      {
        auto s = span("hamlib.group", rid);
        groups = group_by_support(terms);
      }
      res.num_groups = groups.size();

      Circuit prelude(n);
      std::vector<SubcircuitProfile> profiles;
      {
        auto stage = span("phoenix.simplify", rid);
        struct Outcome {
          SimplifiedGroup sg;
          SubcircuitProfile profile;
          bool has_profile = false;
        };
        std::vector<Outcome> outcomes(groups.size());
        const std::uint64_t sid = stage->id();
        ThreadPool::shared().parallel_for(groups.size(), [&](std::size_t gi) {
          Outcome& o = outcomes[gi];
          {
            auto s = span("phoenix.simplify/simplify_bsf", sid);
            o.sg = simplify_bsf(groups[gi].terms, opt.simplify);
          }
          Circuit sub;
          {
            auto s = span("phoenix.simplify/emit", sid);
            sub = o.sg.emit(n, /*include_global_locals=*/false);
          }
          if (!sub.empty()) {
            auto s = span("phoenix.simplify/profile_subcircuit", sid);
            o.profile = profile_subcircuit(std::move(sub), o.sg.cliffords);
            o.has_profile = true;
          }
        });
        profiles.reserve(groups.size());
        for (Outcome& o : outcomes) {
          res.bsf_epochs += o.sg.search_epochs;
          for (const auto& r : o.sg.global_locals())
            append_pauli_rotation(
                prelude,
                PauliTerm(PauliString(r.x, r.z), r.sign ? -r.coeff : r.coeff));
          if (o.has_profile) profiles.push_back(std::move(o.profile));
        }
      }

      Circuit assembled(n);
      {
        auto s = span("phoenix.order", rid);
        OrderingOptions order_opt;
        order_opt.lookahead = opt.lookahead;
        order_opt.routing_aware = opt.hardware_aware;
        const auto order = tetris_order(profiles, order_opt);
        assembled.append(prelude);
        for (std::size_t idx : order) assembled.append(profiles[idx].circ);
      }
      if (opt.peephole != PeepholeLevel::None)
        peephole(assembled, opt.peephole == PeepholeLevel::O3, rid);
      if (opt.resynth != ResynthLevel::Off) resynth(assembled, nullptr);
      res.logical = assembled;

      if (!opt.hardware_aware) {
        res.circuit = opt.isa == TwoQubitIsa::Su4 ? rebase_su4(assembled)
                                                  : std::move(assembled);
      } else {
        Circuit physical;
        {
          auto s = span("mapping.route", rid);
          SabreResult r = sabre_route(assembled, *coupling, opt.sabre);
          res.num_swaps = r.num_swaps;
          res.initial_layout = std::move(r.initial_layout);
          res.final_layout = std::move(r.final_layout);
          physical = decompose_swaps(r.routed);
        }
        peephole(physical, opt.peephole != PeepholeLevel::None, rid);
        if (opt.resynth == ResynthLevel::Routed) resynth(physical, coupling);
        res.circuit = opt.isa == TwoQubitIsa::Su4 ? rebase_su4(physical)
                                                  : std::move(physical);
      }
    }

    if (opt.validation.level != ValidationLevel::Off) {
      auto s = span("verify", rid);
      res.validation =
          validate_translation(res.circuit, terms, n,
                               {res.initial_layout, res.final_layout},
                               opt.validation);
    }
    {
      auto s = span("phoenix.serialize", rid);
      (void)compile_result_to_bytes(res);
    }
  }
  out.groups = res.num_groups;
  out.simplify_epochs = res.bsf_epochs;
  out.swaps = res.num_swaps;
  out.circuit = std::move(res.circuit);
  return out;
}

}  // namespace wirebench
