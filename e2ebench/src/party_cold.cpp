// party_cold_hamming160: the two-party deployment. A GarblerEndpoint and an
// EvaluatorEndpoint run on two threads over a fresh loopback TCP connection
// per operation, with fresh endpoints, no WarmState, IKNP OT and a private
// seed per role. Both parties plan Hamming-160 from scratch, pay the base
// OTs every run and block on per-cycle round trips; nothing carries over.
#include <exception>
#include <memory>
#include <optional>
#include <thread>

#include "arm/arm2gc.h"
#include "gc/transport_socket.h"
#include "obs/trace.h"
#include "programs/programs.h"
#include "workloads.h"

namespace e2e {

using namespace arm2gc;

namespace {

constexpr const char* kHost = "127.0.0.1";

/// Sum of the durations of the program's own spans named `name` in a
/// Chrome trace export (durations are microseconds with ns fractions).
double sum_span_us(const std::string& json, const std::string& name) {
  const std::string key = "{\"name\":\"" + name + "\"";
  double total = 0;
  for (std::size_t at = json.find(key); at != std::string::npos; at = json.find(key, at + 1)) {
    const std::size_t d = json.find("\"dur\":", at);
    if (d == std::string::npos) break;
    total += std::strtod(json.c_str() + d + 6, nullptr);
  }
  return total;
}

struct Sides {
  arm::Arm2GcResult garbler;
  arm::Arm2GcResult evaluator;
  gc::CommStats garbler_sent;
  gc::CommStats evaluator_sent;
  RoleTimes gt;
  RoleTimes et;
};

/// One protocol run: the evaluator connects from its own thread, the garbler
/// accepts on this one. A failure on either side closes that side's socket
/// so the peer's blocked read ends instead of hanging.
Sides run_pair(const arm::Arm2Gc& machine, gc::SocketListener& listener,
               const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b,
               const core::PartyOptions& gopt, const core::PartyOptions& eopt, bool traced,
               SpanLog& log, std::uint64_t op, std::uint64_t root) {
  Sides out;
  std::exception_ptr eval_error;
  std::thread evaluator([&] {
    try {
      std::unique_ptr<gc::SocketDuplex> sock = gc::SocketDuplex::connect(kHost, listener.port());
      try {
        if (traced) {
          HookTimer timer(log, op, root);
          core::EvaluatorEndpoint ep(machine.cpu().nl, eopt, sock->end());
          const core::RunResult r =
              drive_evaluator(ep, machine.bob_input_bits(b), timer, out.et);
          out.evaluator.cycles = r.final_cycle + 1;
          out.evaluator.stats = r.stats;
        } else {
          out.evaluator = machine.run_evaluator(b, sock->end(), eopt);
        }
        out.evaluator_sent = sock->sent();
      } catch (...) {
        sock->close();
        throw;
      }
    } catch (...) {
      eval_error = std::current_exception();
    }
  });
  std::exception_ptr garbler_error;
  try {
    std::unique_ptr<gc::SocketDuplex> sock = listener.accept();
    try {
      if (traced) {
        HookTimer timer(log, op, root);
        core::GarblerEndpoint ep(machine.cpu().nl, gopt, sock->end());
        const core::RunResult r =
            drive_garbler(ep, machine.alice_input_bits(a), timer, out.gt);
        out.garbler.cycles = r.final_cycle + 1;
        out.garbler.stats = r.stats;
        out.garbler.outputs = machine.decode_output_bits(r.final_outputs);
      } else {
        out.garbler = machine.run_garbler(a, sock->end(), gopt);
      }
      out.garbler_sent = sock->sent();
    } catch (...) {
      sock->close();
      throw;
    }
  } catch (...) {
    garbler_error = std::current_exception();
  }
  evaluator.join();
  if (garbler_error) std::rethrow_exception(garbler_error);
  if (eval_error) std::rethrow_exception(eval_error);
  return out;
}

}  // namespace

void run_party_cold_hamming160(Recorder& rec) {
  const RunConfig& cfg = rec.cfg();
  Sums sums;

  const std::uint64_t b0 = wall_ns();
  const programs::Program prog = programs::hamming(5);
  const arm::Arm2Gc machine(prog.cfg, prog.words);
  sums.add("arm.build_ms", ms(wall_ns() - b0));
  gc::SocketListener listener(kHost, 0);

  core::ExecOptions exec;
  exec.ot_backend = gc::OtBackend::Iknp;
  core::PartyOptions gopt = machine.party_options(core::Role::Garbler, 1u << 20,
                                                  gc::Scheme::HalfGates, exec);
  core::PartyOptions eopt = machine.party_options(core::Role::Evaluator, 1u << 20,
                                                  gc::Scheme::HalfGates, exec);
  rec.load_threads = 2;
  rec.connections = 1;
  rec.note("ot_backend", "iknp");

  SplitMix inputs = stream(cfg.seed, 1);
  SplitMix seeds = stream(cfg.seed, 2);
  ProgramLedger ledger;
  obs::Tracer& tracer = obs::Tracer::instance();

  struct Done {
    Sides s;
    gc::CommStats comm;
    std::uint64_t dt = 0;
  };
  /// One checked operation on fresh inputs and private seeds. Returns
  /// nothing when it failed: a timed failure is counted, a warm-up failure
  /// marks the run incorrect.
  auto run_checked = [&](std::uint64_t op, bool timed) -> std::optional<Done> {
    const std::vector<std::uint32_t> a = inputs.words(5);
    const std::vector<std::uint32_t> b = inputs.words(5);
    gopt.private_seed = seeds.block();
    eopt.private_seed = seeds.block();
    const arm::Arm2GcResult ref = machine.run_reference(a, b);
    const Expected want{{ref_hamming(a, b)}, ref.cycles, machine.conventional_non_xor(ref.cycles)};

    const bool traced = timed && cfg.trace;
    const std::uint64_t root = rec.spans.next_id();
    if (traced) {
      tracer.clear();
      tracer.enable();
    }
    Done d;
    std::string error;
    const std::uint64_t t0 = wall_ns();
    try {
      d.s = run_pair(machine, listener, a, b, gopt, eopt, traced, rec.spans, op, root);
    } catch (const std::exception& e) {
      error = std::string("protocol: ") + e.what();
    }
    d.dt = wall_ns() - t0;
    if (traced) tracer.disable();
    if (timed) rec.spans.add({"op.party_cold", root, 0, op, t0, d.dt, thread_ordinal()});
    std::string bad;
    if (error.empty()) {
      d.comm = d.s.garbler_sent;
      d.comm += d.s.evaluator_sent;
      Observed got;
      got.outputs = {d.s.garbler.outputs.at(0)};
      got.cycles = d.s.garbler.cycles;
      got.garbled_non_xor = d.s.garbler.stats.garbled_non_xor;
      got.skipped_non_xor = d.s.garbler.stats.skipped_non_xor;
      got.non_xor_slots = d.s.garbler.stats.non_xor_slots;
      got.garbled_table_bytes = d.comm.garbled_table_bytes;
      got.garbler_digest = d.s.garbler.stats.table_digest;
      got.evaluator_digest = d.s.evaluator.stats.table_digest;
      bad = check_op(want, got, ledger);
      if (bad.empty() && d.s.evaluator.cycles != d.s.garbler.cycles) {
        bad = "parties ran different cycle counts";
      }
    }
    if (!timed) {
      if (!error.empty() || !bad.empty()) rec.fatal("warm-up: " + error + bad);
    } else if (!error.empty()) {
      rec.op_done(error, false);
    } else {
      rec.op_done(bad, !bad.empty());
    }
    if (!error.empty() || !bad.empty()) return std::nullopt;
    return d;
  };

  // Warm-up (set-up): two untimed runs, so the timed phase starts with the
  // process's code, allocator and loopback path warm, and set-up time covers
  // more than one run's noise.
  for (int i = 0; i < 2; ++i) (void)run_checked(0, false);
  const double setup_s = static_cast<double>(wall_ns() - cfg.t0_ns) / 1e9;

  std::vector<OpCost> ops;
  std::vector<double> traced_ms;
  double span_us = 0;
  double outside_ms = 0;
  const std::uint64_t cpu0 = process_cpu_ns();
  const std::uint64_t start = wall_ns();
  const auto deadline = start + static_cast<std::uint64_t>(cfg.seconds * 1e9);
  for (std::uint64_t op = 0; wall_ns() < deadline || op < cfg.min_ops; ++op) {
    const std::optional<Done> done = run_checked(op, true);
    if (!done) continue;
    const Sides& s = done->s;
    const gc::CommStats& comm = done->comm;
    const std::uint64_t dt = done->dt;
    ops.push_back({ms(dt), comm.total(), s.garbler.stats.garbled_non_xor});
    if (!cfg.trace) continue;

    traced_ms.push_back(ms(dt));
    core::RunStats both = s.garbler.stats;  // the lock-step driver's convention:
    both.ot_wall_ns += s.evaluator.stats.ot_wall_ns;  // both roles' OT time summed
    both.ot_offline_wall_ns += s.evaluator.stats.ot_offline_wall_ns;
    add_run_stats(sums, both, comm);
    add_party_times(sums, s.gt, s.et);
    // The program's own tracer saw the same run: its garbler.work spans sit
    // strictly inside the benchmark's timing of GarblerEndpoint::work.
    const std::string program_trace = tracer.export_json();
    span_us += sum_span_us(program_trace, "garbler.work");
    outside_ms += ms(s.gt.wall[kWork]);
    if (op == 0) {
      obs::Tracer::instance().export_to_file(cfg.out_dir + "/program-trace-" + cfg.workload + "-seed" +
                                             std::to_string(cfg.seed) + ".json");
    }
    // Planner-only pass with the cold endpoint's set-up: a fresh per-run
    // cache (second-sighting admission) and a fresh cone memo.
    core::PlanCache cache(gopt.plan_cache_budget_bytes, /*insert_on_first_sight=*/false);
    core::ConeMemo memo(gopt.cone_memo_budget_bytes);
    plan_pass({&machine.cpu().nl, gopt, &cache, &memo, {}, nullptr}, sums, rec.spans, op);
    sums.max("core.plan.cache_entries", static_cast<double>(cache.entries()));
    sums.max("core.plan.cache_evictions", static_cast<double>(cache.evictions()));
  }
  const double phase_s = static_cast<double>(wall_ns() - start) / 1e9;
  tracer.clear();

  if (!cfg.trace) {
    rec.end_to_end(setup_s, ops, phase_s, process_cpu_ns() - cpu0);
    return;
  }
  const double ratio = outside_ms > 0 ? span_us / 1e3 / outside_ms : 0;
  sums.add("core.party.work_span_ratio", ratio);
  if (ratio > 1.0 || ratio < 0.8) {
    rec.fatal("program garbler.work spans (" + std::to_string(span_us / 1e3) +
              " ms) do not sit inside the outside timing of GarblerEndpoint::work (" +
              std::to_string(outside_ms) + " ms)");
  }
  sums.add("trace.run_ms_p50", quantile(traced_ms, 0.5));
  sums.add("trace.ops", static_cast<double>(traced_ms.size()));
  set_layer_metrics(rec, sums, static_cast<double>(traced_ms.size()));
}

}  // namespace e2e
