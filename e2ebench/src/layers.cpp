// Recorder bookkeeping, the end-to-end metric set, and the benchmark-side
// timing of each layer's public functions (endpoint hooks, planner calls).
#include <optional>
#include <stdexcept>

#include "workloads.h"

namespace e2e {

using namespace arm2gc;

void Recorder::op_done(const std::string& error, bool check_failed) {
  std::lock_guard<std::mutex> lock(mu_);
  ++attempted_;
  if (error.empty()) return;
  ++failed_;
  if (check_failed) correct_ = false;
  if (errors_.size() < 8) errors_.push_back(error);
}

void Recorder::fatal(const std::string& error) {
  std::lock_guard<std::mutex> lock(mu_);
  correct_ = false;
  errors_.push_back(error);
}

void Recorder::note(const std::string& key, const std::string& value) {
  std::lock_guard<std::mutex> lock(mu_);
  info_[key] = value;
}

void Recorder::end_to_end(double setup_s, const std::vector<OpCost>& ops, double phase_wall_s,
                          std::uint64_t phase_cpu_ns) {
  std::vector<double> lat;
  lat.reserve(ops.size());
  std::uint64_t comm = 0;
  std::uint64_t garbled = 0;
  for (const OpCost& o : ops) {
    lat.push_back(o.wall_ms);
    comm += o.comm_bytes;
    garbled += o.garbled_non_xor;
  }
  const double n = ops.empty() ? 1.0 : static_cast<double>(ops.size());
  metrics.set("setup_s", setup_s, "s");
  metrics.set("run_ms_p50", quantile(lat, 0.5), "ms");
  metrics.set("run_ms_p90", quantile(lat, 0.9), "ms");
  metrics.set("runs_per_s", static_cast<double>(ops.size()) / phase_wall_s, "1/s");
  metrics.set("cpu_ms_per_run", ms(phase_cpu_ns) / n, "ms");
  metrics.set("comm_bytes_per_run", static_cast<double>(comm) / n, "B");
  metrics.set("garbled_non_xor_per_run", static_cast<double>(garbled) / n, "count");
  metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
  note("timed_ops", std::to_string(ops.size()));
}

core::RunResult drive_garbler(core::GarblerEndpoint& g, const netlist::BitVec& alice,
                              HookTimer& timer, RoleTimes& t) {
  try {
    timer(t, kStart, "garbler.start", [&] { g.start(alice, {}, nullptr); });
    for (std::uint64_t cycle = 0;; ++cycle) {
      timer(t, kBegin, "garbler.begin", [&] { g.begin(cycle); });
      const bool is_final = timer(t, kWork, "garbler.work", [&] { return g.work(cycle); });
      timer(t, kSample, "garbler.sample", [&] { g.sample(); });
      if (is_final) break;
      timer(t, kLatch, "garbler.latch", [&] { g.latch(); });
      timer(t, kRefill, "garbler.ot_refill", [&] { g.ot_refill(); });
    }
    return timer(t, kFinish, "garbler.finish", [&] { return g.finish(); });
  } catch (...) {
    g.abort();
    throw;
  }
}

core::RunResult drive_evaluator(core::EvaluatorEndpoint& e, const netlist::BitVec& bob,
                                HookTimer& timer, RoleTimes& t) {
  try {
    timer(t, kStart, "evaluator.start_request", [&] { e.start_request(bob, {}, nullptr); });
    timer(t, kStart, "evaluator.start_finish", [&] { e.start_finish(); });
    for (std::uint64_t cycle = 0;; ++cycle) {
      timer(t, kBegin, "evaluator.begin_request", [&] { e.begin_request(cycle); });
      timer(t, kBegin, "evaluator.begin_finish", [&] { e.begin_finish(); });
      const bool is_final = timer(t, kWork, "evaluator.work", [&] { return e.work(cycle); });
      timer(t, kSample, "evaluator.sample", [&] { e.sample(); });
      if (is_final) break;
      timer(t, kLatch, "evaluator.latch", [&] { e.latch(); });
      timer(t, kRefill, "evaluator.ot_refill_request", [&] { e.ot_refill_request(); });
      timer(t, kRefill, "evaluator.ot_refill_finish", [&] { e.ot_refill_finish(); });
    }
    return timer(t, kFinish, "evaluator.finish", [&] { return e.finish(); });
  } catch (...) {
    e.abort();
    throw;
  }
}

void add_party_times(Sums& s, const RoleTimes& g, const RoleTimes& e) {
  static const char* const kNames[kHooks] = {
      "core.party.start_ms",  "core.party.begin_ms",     "",
      "core.party.sample_ms", "core.party.latch_ms",     "core.party.ot_refill_ms",
      "core.party.finish_ms"};
  std::uint64_t gwait = 0;
  std::uint64_t ewait = 0;
  for (int h = 0; h < kHooks; ++h) {
    if (h != kWork) s.add(kNames[h], ms(g.wall[h] + e.wall[h]));
    gwait += g.wall[h] - std::min(g.wall[h], g.cpu[h]);
    ewait += e.wall[h] - std::min(e.wall[h], e.cpu[h]);
  }
  s.add("core.party.garbler_work_ms", ms(g.wall[kWork]));
  s.add("core.party.evaluator_work_ms", ms(e.wall[kWork]));
  s.add("core.party.garbler_wait_ms", ms(gwait));
  s.add("core.party.evaluator_wait_ms", ms(ewait));
}

namespace {

/// The endpoints' termination rule (planner_decide_final in core/party.cpp),
/// restated from the documented contract of PartyOptions.
bool decide_final(const core::Planner& planner, const core::PartyOptions& o, std::uint64_t cycle) {
  const bool halt_driven = o.halt_wire.has_value() && !o.fixed_cycles.has_value();
  const std::uint64_t cc = o.fixed_cycles ? *o.fixed_cycles : o.max_cycles;
  bool is_final = !halt_driven && cycle + 1 == cc;
  if (o.halt_wire && o.mode == core::Mode::SkipGate) {
    if (!planner.wire_public(*o.halt_wire)) throw std::runtime_error("plan pass: halt wire secret");
    if (planner.wire_value(*o.halt_wire)) is_final = true;
  }
  if (halt_driven && !is_final && cycle + 1 == cc) {
    throw std::runtime_error("plan pass: max_cycles reached without halt");
  }
  return is_final;
}

}  // namespace

std::uint64_t plan_pass(const PlanPass& p, Sums& s, SpanLog& log, std::uint64_t op) {
  const std::uint64_t root = log.next_id();
  const std::uint64_t root_t0 = wall_ns();
  core::PlannerOptions po;
  po.mode = p.opts.mode;
  po.seed = p.opts.protocol_seed;
  po.cache = p.opts.plan_cache;
  po.cache_budget_bytes = p.opts.plan_cache_budget_bytes;
  po.shared_cache = p.cache;
  po.cone_memo = p.opts.plan_cache && p.opts.cone_memo;
  po.cone_memo_budget_bytes = p.opts.cone_memo_budget_bytes;
  po.shared_cone_memo = p.memo;
  po.cone_target_gates = p.opts.cone_target_gates;

  RoleTimes t;  // wall per call; slots reused as planner phases
  HookTimer timer(log, op, root);
  std::optional<core::Planner> planner;
  std::uint64_t layout = 0;
  std::uint64_t reset = 0;
  {
    const std::uint64_t w0 = wall_ns();
    planner.emplace(*p.nl, po);
    layout = wall_ns() - w0;
    const std::uint64_t w1 = wall_ns();
    planner->reset(p.pub_bits);
    reset = wall_ns() - w1;
  }
  std::uint64_t cycle = 0;
  for (;; ++cycle) {
    netlist::BitVec sp;
    if (p.streams != nullptr && p.streams->pub) sp = p.streams->pub(cycle);
    timer(t, kBegin, "plan.begin_cycle", [&] { planner->begin_cycle(sp); });
    timer(t, kWork, "plan.forward", [&] { planner->forward(); });
    const bool is_final = decide_final(*planner, p.opts, cycle);
    core::CyclePlan plan = timer(t, kFinish, "plan.finish", [&] { return planner->finish(is_final); });
    if (is_final) break;
    timer(t, kLatch, "plan.latch", [&] { planner->latch(plan); });
  }
  s.add("core.plan.layout_ms", ms(layout));
  s.add("core.plan.reset_ms", ms(reset));
  s.add("core.plan.begin_ms", ms(t.wall[kBegin]));
  s.add("core.plan.forward_ms", ms(t.wall[kWork]));
  s.add("core.plan.finish_ms", ms(t.wall[kFinish]));
  s.add("core.plan.latch_ms", ms(t.wall[kLatch]));
  s.add("core.plan.cache_hits", static_cast<double>(planner->cache_hits()));
  s.add("core.plan.cache_misses", static_cast<double>(planner->cache_misses()));
  s.add("core.plan.cone_hits", static_cast<double>(planner->cone_hits()));
  s.add("core.plan.cone_misses", static_cast<double>(planner->cone_misses()));
  log.add({"plan_pass", root, 0, op, root_t0, wall_ns() - root_t0, thread_ordinal()});
  return cycle + 1;
}

void add_run_stats(Sums& s, const core::RunStats& st, const gc::CommStats& comm) {
  s.add("gc.ot.online_ms", ms(st.ot_wall_ns));
  s.add("gc.ot.offline_ms", ms(st.ot_offline_wall_ns));
  s.add("gc.ot.base_ots", static_cast<double>(st.ot_base_ots));
  s.add("gc.ot.online_bytes", static_cast<double>(st.ot_online_bytes));
  s.add("gc.ot.choices", static_cast<double>(st.ot_choices));
  s.add("gc.transport.garbled_table_bytes", static_cast<double>(comm.garbled_table_bytes));
  s.add("gc.transport.input_label_bytes", static_cast<double>(comm.input_label_bytes));
  s.add("gc.transport.ot_bytes", static_cast<double>(comm.ot_bytes));
  s.add("gc.transport.output_bytes", static_cast<double>(comm.output_bytes));
  s.max("gc.transport.high_water_blocks", static_cast<double>(st.transport_high_water_blocks));
}

void set_layer_metrics(Recorder& rec, const Sums& s, double ops) {
  struct Def {
    const char* name;
    const char* unit;
    bool per_op;
  };
  static const Def kDefs[] = {
      {"arm.build_ms", "ms", false},
      {"core.plan.layout_ms", "ms", true},
      {"core.plan.reset_ms", "ms", true},
      {"core.plan.begin_ms", "ms", true},
      {"core.plan.forward_ms", "ms", true},
      {"core.plan.finish_ms", "ms", true},
      {"core.plan.latch_ms", "ms", true},
      {"core.plan.cache_hits", "count", true},
      {"core.plan.cache_misses", "count", true},
      {"core.plan.cone_hits", "count", true},
      {"core.plan.cone_misses", "count", true},
      {"core.plan.cache_entries", "count", false},
      {"core.plan.cache_evictions", "count", false},
      {"core.party.start_ms", "ms", true},
      {"core.party.begin_ms", "ms", true},
      {"core.party.garbler_work_ms", "ms", true},
      {"core.party.evaluator_work_ms", "ms", true},
      {"core.party.sample_ms", "ms", true},
      {"core.party.latch_ms", "ms", true},
      {"core.party.ot_refill_ms", "ms", true},
      {"core.party.finish_ms", "ms", true},
      {"core.party.garbler_wait_ms", "ms", true},
      {"core.party.evaluator_wait_ms", "ms", true},
      {"core.party.work_span_ratio", "ratio", false},
      {"gc.ot.online_ms", "ms", true},
      {"gc.ot.offline_ms", "ms", true},
      {"gc.ot.base_ots", "count", true},
      {"gc.ot.online_bytes", "B", true},
      {"gc.ot.choices", "count", true},
      {"gc.transport.garbled_table_bytes", "B", true},
      {"gc.transport.input_label_bytes", "B", true},
      {"gc.transport.ot_bytes", "B", true},
      {"gc.transport.output_bytes", "B", true},
      {"gc.transport.high_water_blocks", "count", false},
      {"serve.warm_hits", "count", false},
      {"serve.warm_misses", "count", false},
      {"serve.send_queue_high_water_bytes", "B", false},
      {"serve.phase.hello_ms_mean", "ms", false},
      {"serve.phase.start_ms_mean", "ms", false},
      {"serve.phase.begin_ms_mean", "ms", false},
      {"serve.phase.work_ms_mean", "ms", false},
      {"serve.phase.sample_ms_mean", "ms", false},
      {"serve.phase.latch_ms_mean", "ms", false},
      {"serve.phase.refill_ms_mean", "ms", false},
      {"serve.phase.finish_ms_mean", "ms", false},
      {"serve.phase.wrapup_ms_mean", "ms", false},
      {"serve.phase.drain_ms_mean", "ms", false},
      {"serve.warm_checkout_ms_mean", "ms", false},
      {"serve.client_cpu_ms", "ms", true},
      {"serve.client_wait_ms", "ms", true},
      {"trace.run_ms_p50", "ms", false},
      {"trace.ops", "count", false},
  };
  const double n = ops > 0 ? ops : 1.0;
  for (const Def& d : kDefs) rec.metrics.set(d.name, d.per_op ? s.get(d.name) / n : s.get(d.name), d.unit);
}

}  // namespace e2e
