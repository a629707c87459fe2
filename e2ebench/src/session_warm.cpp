// session_warm_matmult3: the in-process deployment. One Arm2Gc::Session on
// MatMult3x3 with precomputed OT, fresh Alice and Bob words for every
// operation. The session keeps both parties' plan caches, cone memos and OT
// pools warm across runs; it bypasses sockets and the evaluator's own
// planner (the lock-step evaluator follows the garbler's plan).
#include <exception>

#include "arm/arm2gc.h"
#include "gc/transport.h"
#include "programs/programs.h"
#include "workloads.h"

namespace e2e {

using namespace arm2gc;

namespace {

constexpr std::size_t kN = 3;

/// One traced operation: the lock-step schedule Arm2Gc::Session::run uses
/// (core/skipgate.cpp), driven hook by hook over the session's own warm
/// state, so it is the same run with every call timed from outside.
arm::Arm2GcResult traced_lockstep(const arm::Arm2Gc& machine, arm::Arm2Gc::Session& session,
                                  const core::ExecOptions& exec,
                                  const std::vector<std::uint32_t>& a,
                                  const std::vector<std::uint32_t>& b, HookTimer& timer,
                                  RoleTimes& gt, RoleTimes& et, crypto::Block& eval_digest) {
  const auto& nl = machine.cpu().nl;
  gc::InMemoryDuplex duplex;
  core::GarblerEndpoint g(nl, machine.party_options(core::Role::Garbler, 1u << 20,
                                                    gc::Scheme::HalfGates, exec),
                          duplex.garbler_end(), &session.garbler_warm());
  core::EvaluatorEndpoint e(nl, machine.party_options(core::Role::Evaluator, 1u << 20,
                                                      gc::Scheme::HalfGates, exec),
                            duplex.evaluator_end(), &session.evaluator_warm(), g);
  const netlist::BitVec abits = machine.alice_input_bits(a);
  const netlist::BitVec bbits = machine.bob_input_bits(b);
  try {
    timer(et, kStart, "evaluator.start_request", [&] { e.start_request(bbits, {}, nullptr); });
    timer(gt, kStart, "garbler.start", [&] { g.start(abits, {}, nullptr); });
    timer(et, kStart, "evaluator.start_finish", [&] { e.start_finish(); });
    for (std::uint64_t cycle = 0;; ++cycle) {
      timer(et, kBegin, "evaluator.begin_request", [&] { e.begin_request(cycle); });
      timer(gt, kBegin, "garbler.begin", [&] { g.begin(cycle); });
      timer(et, kBegin, "evaluator.begin_finish", [&] { e.begin_finish(); });
      const bool fg = timer(gt, kWork, "garbler.work", [&] { return g.work(cycle); });
      const bool fe = timer(et, kWork, "evaluator.work", [&] { return e.work(cycle); });
      timer(et, kSample, "evaluator.sample", [&] { e.sample(); });
      timer(gt, kSample, "garbler.sample", [&] { g.sample(); });
      if (fg != fe) throw std::logic_error("endpoints disagree on the final cycle");
      if (fg) break;
      timer(gt, kLatch, "garbler.latch", [&] { g.latch(); });
      timer(et, kLatch, "evaluator.latch", [&] { e.latch(); });
      timer(et, kRefill, "evaluator.ot_refill_request", [&] { e.ot_refill_request(); });
      timer(gt, kRefill, "garbler.ot_refill", [&] { g.ot_refill(); });
      timer(et, kRefill, "evaluator.ot_refill_finish", [&] { e.ot_refill_finish(); });
    }
  } catch (...) {
    g.abort();
    e.abort();
    throw;
  }
  const core::RunResult gr = timer(gt, kFinish, "garbler.finish", [&] { return g.finish(); });
  const core::RunResult er = timer(et, kFinish, "evaluator.finish", [&] { return e.finish(); });
  arm::Arm2GcResult out;
  out.cycles = gr.final_cycle + 1;
  out.stats = gr.stats;
  out.stats.ot_wall_ns += er.stats.ot_wall_ns;
  out.stats.ot_offline_wall_ns += er.stats.ot_offline_wall_ns;
  out.stats.comm = duplex.stats();
  out.stats.transport_high_water_blocks = duplex.high_water_blocks();
  out.outputs = machine.decode_output_bits(gr.final_outputs);
  eval_digest = er.stats.table_digest;
  return out;
}

}  // namespace

void run_session_warm_matmult3(Recorder& rec) {
  const RunConfig& cfg = rec.cfg();
  Sums sums;

  const std::uint64_t b0 = wall_ns();
  const programs::Program prog = programs::matmult(kN);
  const arm::Arm2Gc machine(prog.cfg, prog.words);
  sums.add("arm.build_ms", ms(wall_ns() - b0));

  core::ExecOptions exec;
  exec.ot_backend = gc::OtBackend::Precomp;
  arm::Arm2Gc::Session session(machine, exec);
  exec.plan_cache = true;  // what the session runs with
  rec.load_threads = 1;
  rec.connections = 0;
  rec.note("ot_backend", "precomp");

  SplitMix inputs = stream(cfg.seed, 1);
  ProgramLedger ledger;
  auto expect = [&](const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b) {
    const arm::Arm2GcResult ref = machine.run_reference(a, b);
    return Expected{ref_matmult(a, b, kN), ref.cycles, machine.conventional_non_xor(ref.cycles)};
  };
  auto observe = [](const arm::Arm2GcResult& r) {
    Observed got;
    got.outputs.assign(r.outputs.begin(), r.outputs.begin() + kN * kN);
    got.cycles = r.cycles;
    got.garbled_non_xor = r.stats.garbled_non_xor;
    got.skipped_non_xor = r.stats.skipped_non_xor;
    got.non_xor_slots = r.stats.non_xor_slots;
    got.garbled_table_bytes = r.stats.comm.garbled_table_bytes;
    got.garbler_digest = r.stats.table_digest;
    return got;
  };

  // Warm-up (set-up): the session's first run fills its caches and OT pools;
  // two more warm runs follow, so that set-up time is not one cold run's
  // page-fault-heavy first touch alone, which varies by ~20 % between
  // processes on a shared host.
  for (int i = 0; i < 3; ++i) {
    const std::vector<std::uint32_t> a = inputs.words(kN * kN);
    const std::vector<std::uint32_t> b = inputs.words(kN * kN);
    try {
      const std::string bad = check_op(expect(a, b), observe(session.run(a, b)), ledger);
      if (!bad.empty()) rec.fatal("warm-up run: " + bad);
    } catch (const std::exception& e) {
      rec.fatal(std::string("warm-up run: ") + e.what());
    }
  }
  // The planner-only pass mirrors the session's warm garbler planner with a
  // cache and memo of its own, warmed by one pass as well.
  const core::PartyOptions popt =
      machine.party_options(core::Role::Garbler, 1u << 20, gc::Scheme::HalfGates, exec);
  std::unique_ptr<core::PlanCache> pass_cache;
  std::unique_ptr<core::ConeMemo> pass_memo;
  if (cfg.trace) {
    pass_cache = std::make_unique<core::PlanCache>(popt.plan_cache_budget_bytes);
    pass_memo = std::make_unique<core::ConeMemo>(popt.cone_memo_budget_bytes);
    Sums discard;
    SpanLog none;
    plan_pass({&machine.cpu().nl, popt, pass_cache.get(), pass_memo.get(), {}, nullptr}, discard,
              none, 0);
  }
  const double setup_s = static_cast<double>(wall_ns() - cfg.t0_ns) / 1e9;

  std::vector<OpCost> ops;
  std::vector<double> traced_ms;
  const std::uint64_t cpu0 = process_cpu_ns();
  const std::uint64_t start = wall_ns();
  const auto deadline = start + static_cast<std::uint64_t>(cfg.seconds * 1e9);
  for (std::uint64_t op = 0; wall_ns() < deadline || op < cfg.min_ops; ++op) {
    const std::vector<std::uint32_t> a = inputs.words(kN * kN);
    const std::vector<std::uint32_t> b = inputs.words(kN * kN);
    const Expected want = expect(a, b);

    const std::uint64_t root = rec.spans.next_id();
    RoleTimes gt, et;
    crypto::Block eval_digest{};
    std::string error;
    arm::Arm2GcResult r;
    const std::uint64_t t0 = wall_ns();
    try {
      if (cfg.trace) {
        HookTimer timer(rec.spans, op, root);
        r = traced_lockstep(machine, session, exec, a, b, timer, gt, et, eval_digest);
      } else {
        r = session.run(a, b);
      }
    } catch (const std::exception& e) {
      error = std::string("protocol: ") + e.what();
    }
    const std::uint64_t dt = wall_ns() - t0;
    rec.spans.add({"op.session_warm", root, 0, op, t0, dt, thread_ordinal()});
    if (!error.empty()) {
      rec.op_done(error, false);
      continue;
    }
    Observed got = observe(r);
    if (cfg.trace) got.evaluator_digest = eval_digest;
    const std::string bad = check_op(want, got, ledger);
    rec.op_done(bad, !bad.empty());
    if (!bad.empty()) continue;
    ops.push_back({ms(dt), r.stats.comm.total(), got.garbled_non_xor});
    if (!cfg.trace) continue;

    traced_ms.push_back(ms(dt));
    add_run_stats(sums, r.stats, r.stats.comm);
    add_party_times(sums, gt, et);
    plan_pass({&machine.cpu().nl, popt, pass_cache.get(), pass_memo.get(), {}, nullptr}, sums,
              rec.spans, op);
  }
  const double phase_s = static_cast<double>(wall_ns() - start) / 1e9;
  if (!cfg.trace) {
    rec.end_to_end(setup_s, ops, phase_s, process_cpu_ns() - cpu0);
    return;
  }
  sums.add("core.plan.cache_entries",
           static_cast<double>(session.garbler_warm().plan_cache().entries()));
  sums.add("core.plan.cache_evictions",
           static_cast<double>(session.garbler_warm().plan_cache().evictions()));
  sums.add("trace.run_ms_p50", quantile(traced_ms, 0.5));
  sums.add("trace.ops", static_cast<double>(traced_ms.size()));
  set_layer_metrics(rec, sums, static_cast<double>(traced_ms.size()));
}

}  // namespace e2e
