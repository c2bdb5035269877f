#include "phoenix/compiler.hpp"

#include <exception>
#include <functional>
#include <optional>
#include <utility>

#include "circuit/synthesis.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "hamlib/grouping.hpp"
#include "phoenix/qaoa_router.hpp"
#include "transpile/peephole.hpp"
#include "transpile/rebase.hpp"

namespace phoenix {

CompileResult phoenix_compile(const std::vector<PauliTerm>& terms,
                              std::size_t num_qubits,
                              const PhoenixOptions& opt) {
  if (opt.hardware_aware) {
    if (opt.coupling == nullptr)
      throw Error(Stage::Routing,
                  "phoenix_compile: hardware-aware mode needs a coupling graph");
    if (opt.coupling->num_vertices() < num_qubits)
      throw Error(Stage::Routing,
                  "phoenix_compile: device has " +
                      std::to_string(opt.coupling->num_vertices()) +
                      " qubits, program needs " + std::to_string(num_qubits));
  }

  CompileResult res;
  const bool diagnose = opt.validation.level != ValidationLevel::Off;
  const bool paranoid = opt.validation.level == ValidationLevel::Paranoid;

  // Observability: one Trace per compile, installed on this thread for the
  // duration (workers install it per task). Keeping it optional means the
  // default path never touches a clock or a lock.
  std::optional<Trace> trace;
#ifndef PHOENIX_DISABLE_TRACE
  if (opt.trace) trace.emplace();
#endif
  Trace* const tr = trace ? &*trace : nullptr;
  Trace::Scope trace_scope(tr);

  // `stage` is the one place that wraps a pipeline stage. It polls the token
  // first (so a request cancelled or past its deadline starts no further
  // stage), runs `body` under the stage's trace span, runs `check` when the
  // validation level reaches `check_from`, and records the stage's note and
  // check in `diagnostics`. Stage timings live in the trace only: they are
  // telemetry, not part of the (cached, content-addressed) result.
  auto stage = [&](const char* name, Stage where, auto&& body,
                   const std::function<void()>& check = {},
                   ValidationLevel check_from = ValidationLevel::Paranoid) {
    opt.cancel.check(where);
    TraceSpan span(name);
    std::string note = body();
    const bool checked = check && opt.validation.level >= check_from;
    if (checked) check();
    if (diagnose) res.diagnostics.push_back({name, checked, std::move(note)});
  };

  // The circuit each stage hands to the next.
  Circuit circ(num_qubits);
  auto peephole = [&](bool o3) {
    if (o3)
      optimize_o3(circ, opt.peephole_engine, opt.cancel);
    else
      optimize_o2(circ, opt.peephole_engine, opt.cancel);
  };

  // O4 Clifford-region resynthesis (src/resynth/), run on the logical
  // circuit after the peephole and, in Routed mode, again on the physical
  // circuit with coupling-constrained CNOTs. The per-region acceptor only
  // ever splices in strict 2Q improvements, and accepted rewrites re-derive
  // the region tableau bit-identically, so the pass can't regress quality
  // or correctness; the follow-up peephole cleans region seams (it never
  // adds 2Q gates — cancellation and 1Q fusion only).
  auto resynth = [&](const Graph* coupling) {
    ResynthOptions ropt;
    ropt.coupling = coupling;
    ropt.cancel = opt.cancel;
    const ResynthStats rst = resynthesize_clifford_regions(circ, ropt);
    if (rst.accepted > 0) peephole(opt.peephole == PeepholeLevel::O3);
    return std::to_string(rst.regions) + " regions, " +
           std::to_string(rst.accepted) + " accepted, 2q " +
           std::to_string(rst.two_q_before) + "->" +
           std::to_string(circ.two_qubit_count());
  };

  if (opt.hardware_aware && terms.size() <= 4096 &&
      is_commuting_two_local(terms)) {
    // Commuting 2-local programs (QAOA cost layers): the Trotter arrangement
    // is completely free, so hardware-aware compilation uses the
    // commutativity-aware router (§IV-C.3 specialized to 2-local IR groups)
    // instead of the order-preserving SABRE path.
    stage(
        "route(qaoa)", Stage::Routing,
        [&] {
          QaoaRouteResult routed =
              route_commuting_two_local(terms, num_qubits, *opt.coupling);
          res.num_groups = terms.size();
          res.num_swaps = routed.num_swaps;
          res.initial_layout = std::move(routed.initial_layout);
          res.final_layout = std::move(routed.final_layout);
          res.logical = Circuit(num_qubits);
          for (const auto& t : terms) append_pauli_rotation(res.logical, t);
          circ = std::move(routed.circuit);
          trace_count("qaoa.swaps", res.num_swaps);
          return std::to_string(res.num_swaps) + " swaps";
        },
        [&] { check_circuit_wellformed(circ, opt.coupling); });
  } else {
    // 1. IR grouping by support set (§IV-A).
    std::vector<IrGroup> groups;
    stage("group", Stage::Grouping, [&] {
      groups = group_by_support(terms);
      res.num_groups = groups.size();
      return std::to_string(groups.size()) + " groups";
    });

    // 2. Group-wise BSF simplification (Algorithm 1) and subcircuit
    //    emission, parallelized over the independent groups. Each worker
    //    fills one outcome slot; the merge below runs serially in group
    //    order, so the result (prelude rotations, profile order, diagnostics)
    //    is identical for any thread count. Global-frame 1Q locals float to a
    //    prelude so group boundaries stay clean for Clifford2Q cancellation.
    struct GroupOutcome {
      SimplifiedGroup sg;
      SubcircuitProfile profile;
      bool has_profile = false;
      std::exception_ptr error;
    };
    std::vector<GroupOutcome> outcomes;
    Circuit prelude(num_qubits);
    std::vector<SubcircuitProfile> profiles;
    stage(
        "simplify", Stage::Simplify,
        [&] {
          // Stage options inherit the pipeline token unless the caller armed
          // a stage-specific one (per-stage tokens are an expert escape
          // hatch, so last-one-wins is fine).
          SimplifyOptions simplify_opt = opt.simplify;
          if (!simplify_opt.cancel.valid()) simplify_opt.cancel = opt.cancel;
          outcomes.resize(groups.size());
          auto run_group = [&](std::size_t gi) {
            // Workers are pool threads: install the owning compile's trace
            // for this task so per-group probes land on the right trace with
            // per-thread track attribution (no-ops when tracing is off).
            Trace::Scope worker_scope(tr);
            TraceSpan group_span("simplify.group", "simplify.group_ms");
            GroupOutcome& out = outcomes[gi];
            try {
              out.sg = simplify_bsf(groups[gi].terms, simplify_opt);
              Circuit sub =
                  out.sg.emit(num_qubits, /*include_global_locals=*/false);
              if (!sub.empty()) {
                out.profile =
                    profile_subcircuit(std::move(sub), out.sg.cliffords);
                out.has_profile = true;
              }
            } catch (...) {
              out.error = std::current_exception();
            }
          };
          if (opt.num_threads == 0) {
            ThreadPool::shared().parallel_for(groups.size(), run_group);
          } else {
            ThreadPool local(opt.num_threads - 1);
            local.parallel_for(groups.size(), run_group);
          }

          profiles.reserve(groups.size());
          for (std::size_t gi = 0; gi < groups.size(); ++gi) {
            GroupOutcome& out = outcomes[gi];
            if (out.error) {
              // Deterministic attribution: the lowest-indexed failing group
              // wins, with its index attached, exactly as a serial loop
              // would throw.
              try {
                std::rethrow_exception(out.error);
              } catch (const Error& e) {
                throw with_group(e, gi);
              }
            }
            res.bsf_epochs += out.sg.search_epochs;
            for (const auto& r : out.sg.global_locals()) {
              append_pauli_rotation(prelude,
                                    PauliTerm(PauliString(r.x, r.z),
                                              r.sign ? -r.coeff : r.coeff));
            }
            if (out.has_profile) profiles.push_back(std::move(out.profile));
          }
          return std::to_string(res.bsf_epochs) + " epochs";
        },
        [&] {
          for (std::size_t gi = 0; gi < groups.size(); ++gi) {
            try {
              check_simplified_group(groups[gi].terms, outcomes[gi].sg);
            } catch (const Error& e) {
              throw with_group(e, gi);
            }
          }
        });

    // 3. Tetris-like ordering (§IV-C) and assembly.
    stage("order", Stage::Ordering, [&] {
      OrderingOptions order_opt;
      order_opt.lookahead = opt.lookahead;
      order_opt.routing_aware = opt.hardware_aware;
      order_opt.cancel = opt.cancel;
      circ.append(prelude);
      for (std::size_t idx : tetris_order(profiles, order_opt))
        circ.append(profiles[idx].circ);
      return std::string();
    });

    // 4. Logical-level gate cancellation, then O4 on the logical circuit.
    stage("peephole", Stage::Peephole, [&] {
      if (opt.peephole != PeepholeLevel::None)
        peephole(opt.peephole == PeepholeLevel::O3);
      return std::string();
    });
    if (opt.resynth != ResynthLevel::Off)
      stage("resynth", Stage::Resynth, [&] { return resynth(nullptr); });
    res.logical = circ;

    // 5. Hardware mapping.
    if (opt.hardware_aware) {
      SabreResult routed;
      stage(
          "route(sabre)", Stage::Routing,
          [&] {
            SabreOptions sabre_opt = opt.sabre;
            if (!sabre_opt.cancel.valid()) sabre_opt.cancel = opt.cancel;
            routed = sabre_route(circ, *opt.coupling, sabre_opt);
            res.num_swaps = routed.num_swaps;
            res.initial_layout = std::move(routed.initial_layout);
            res.final_layout = std::move(routed.final_layout);
            circ = decompose_swaps(routed.routed);
            return std::to_string(res.num_swaps) + " swaps";
          },
          [&] {
            // SWAP accounting is checked on the routed circuit, whose SWAPs
            // are not yet decomposed into CNOTs.
            check_swap_accounting(routed.routed, routed.num_swaps);
            check_circuit_wellformed(routed.routed, opt.coupling);
          });
      // Post-routing cancellation: SWAP CNOTs frequently annihilate against
      // the rotation-ladder CNOTs they abut (the paper follows every
      // hardware-aware flow with a full Qiskit O3 pass).
      stage("peephole(post-route)", Stage::Peephole, [&] {
        peephole(opt.peephole != PeepholeLevel::None);
        return std::string();
      });
    }
  }

  // O4 on the physical circuit: the synthesizer emits only coupling-edge
  // CNOTs, so rewrites stay routable by construction. It runs before any Su4
  // rebase (Su4 blocks are non-Clifford barriers the extractor can't absorb).
  if (opt.hardware_aware && opt.resynth == ResynthLevel::Routed)
    stage("resynth(routed)", Stage::Resynth,
          [&] { return resynth(opt.coupling); });

  // The one exit: ISA emission, well-formedness, translation validation of
  // the final circuit and the trace's stats.
  if (opt.isa == TwoQubitIsa::Su4) {
    TraceSpan span("rebase(su4)");
    res.circuit = rebase_su4(circ);
  } else {
    res.circuit = std::move(circ);
  }
  if (paranoid)
    check_circuit_wellformed(res.circuit,
                             opt.hardware_aware ? opt.coupling : nullptr);
  if (diagnose) {
    // Cheap throws only on a definite mismatch; Paranoid also refuses to
    // return Inconclusive.
    std::string verdict;
    stage(
        "validate", Stage::Validation,
        [&] {
          res.validation = validate_translation(
              res.circuit, terms, num_qubits,
              LayoutSpec{res.initial_layout, res.final_layout}, opt.validation);
          verdict = validation_status_name(res.validation.status);
          if (!res.validation.message.empty())
            verdict += ": " + res.validation.message;
          return verdict;
        },
        [&] {
          if (res.validation.status == ValidationStatus::Fail ||
              (paranoid && !res.validation.passed()))
            throw Error(Stage::Validation, "translation validation " + verdict);
        },
        ValidationLevel::Cheap);
  }
  if (tr != nullptr) res.stats = tr->snapshot();
  return res;
}

}  // namespace phoenix
