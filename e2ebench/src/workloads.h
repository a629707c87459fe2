// The three workloads, one per deployment: two endpoints over TCP, the
// in-process session, and the garbler service. Each runs its set-up, then
// closed-loop operations until the time is up, checking every operation.
// With tracing on, the same operations are driven through the layers'
// public functions and timed from here instead of reporting end-to-end
// figures (see README.md for the metric map).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "check.h"
#include "core/party.h"
#include "core/plan.h"
#include "netlist/netlist.h"
#include "util.h"

namespace e2e {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
  /// Process start on the monotonic clock (set-up time is counted from it).
  std::uint64_t t0_ns = 0;
  /// Timed operations never stop before this many, so the p90 has at least
  /// ten samples beyond it.
  std::uint64_t min_ops = 100;
};

/// Per-operation sums of named per-layer quantities; averaged over the
/// operations at the end.
class Sums {
 public:
  void add(const std::string& name, double v) { m_[name] += v; }
  void max(const std::string& name, double v) { m_[name] = std::max(m_[name], v); }
  /// Adds every sum of `o` (callers merge max-type entries themselves).
  void merge(const Sums& o) {
    for (const auto& [k, v] : o.m_) m_[k] += v;
  }
  [[nodiscard]] double get(const std::string& name) const {
    const auto it = m_.find(name);
    return it == m_.end() ? 0.0 : it->second;
  }

 private:
  std::map<std::string, double> m_;
};

/// What one operation cost, as the caller sees it.
struct OpCost {
  double wall_ms = 0;
  std::uint64_t comm_bytes = 0;
  std::uint64_t garbled_non_xor = 0;
};

/// Outcome of one benchmark run: counts, checks and metrics.
class Recorder {
 public:
  explicit Recorder(const RunConfig& cfg) : cfg_(cfg) {}
  const RunConfig& cfg() const { return cfg_; }

  /// Counts one attempted operation; `error` non-empty marks it failed.
  /// A wrong result (`check_failed`) also clears `correct`.
  void op_done(const std::string& error, bool check_failed);
  /// Records a set-up failure (nothing can be measured).
  void fatal(const std::string& error);
  [[nodiscard]] bool correct() const { return correct_; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& errors() const { return errors_; }

  /// Fills every end-to-end metric from the timed phase.
  void end_to_end(double setup_s, const std::vector<OpCost>& ops, double phase_wall_s,
                  std::uint64_t phase_cpu_ns);

  /// Records a free-form fact about the run (backend, mix, ...).
  void note(const std::string& key, const std::string& value);
  [[nodiscard]] const std::map<std::string, std::string>& info() const { return info_; }

  Metrics metrics;
  SpanLog spans;
  /// Load the workload puts on the host: its client/party threads and the
  /// connections open at once (checked against nproc in the host record).
  int load_threads = 0;
  int connections = 0;

 private:
  const RunConfig& cfg_;
  std::mutex mu_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> errors_;
  std::map<std::string, std::string> info_;
};

void run_party_cold_hamming160(Recorder& rec);
void run_session_warm_matmult3(Recorder& rec);
void run_served_mix(Recorder& rec);

// ---------------------------------------------------------------------------
// Benchmark-side timing of the layers, shared by the workloads (layers.cpp).
// ---------------------------------------------------------------------------

/// The endpoint hooks of the documented stepwise schedule (core/party.h).
enum Hook : int { kStart, kBegin, kWork, kSample, kLatch, kRefill, kFinish, kHooks };

/// Wall and thread-CPU time spent inside one role's hooks during one
/// operation.
struct RoleTimes {
  std::uint64_t wall[kHooks] = {};
  std::uint64_t cpu[kHooks] = {};
};

/// Operations whose every call is kept as a span; later operations keep
/// only their root span, which bounds the trace file.
inline constexpr std::uint64_t kDetailOps = 3;

/// Times one call from the benchmark's side and records its span.
class HookTimer {
 public:
  HookTimer(SpanLog& log, std::uint64_t op, std::uint64_t parent)
      : log_(log), op_(op), parent_(parent), detail_(op < kDetailOps) {}
  template <class F>
  decltype(auto) operator()(RoleTimes& t, Hook h, const char* name, F&& f) {
    const std::uint64_t w0 = wall_ns();
    const std::uint64_t c0 = thread_cpu_ns();
    struct Stop {
      HookTimer& self;
      RoleTimes& t;
      Hook h;
      const char* name;
      std::uint64_t w0, c0;
      ~Stop() {
        const std::uint64_t w = wall_ns() - w0;
        t.wall[h] += w;
        t.cpu[h] += thread_cpu_ns() - c0;
        if (self.detail_) {
          self.log_.add({name, self.log_.next_id(), self.parent_, self.op_, w0, w, thread_ordinal()});
        }
      }
    } stop{*this, t, h, name, w0, c0};
    return f();
  }

 private:
  SpanLog& log_;
  std::uint64_t op_;
  std::uint64_t parent_;
  bool detail_;
};

/// Drives one role's hooks in the order GarblerEndpoint::run /
/// EvaluatorEndpoint::run use, timing each call.
arm2gc::core::RunResult drive_garbler(arm2gc::core::GarblerEndpoint& g,
                                      const arm2gc::netlist::BitVec& alice, HookTimer& timer,
                                      RoleTimes& t);
arm2gc::core::RunResult drive_evaluator(arm2gc::core::EvaluatorEndpoint& e,
                                        const arm2gc::netlist::BitVec& bob, HookTimer& timer,
                                        RoleTimes& t);

/// Adds one operation's hook times to the core.party.* sums. The evaluator
/// times may be empty (a role the workload cannot see).
void add_party_times(Sums& sums, const RoleTimes& g, const RoleTimes& e);

/// Planner-only pass over one operation's public schedule: a fresh Planner
/// with the operation's cache and memo set-up, driven through
/// reset/begin_cycle/forward/finish/latch exactly as an endpoint drives it,
/// each call timed. The planner reads public data only, so this repeats the
/// operation's planning work exactly.
struct PlanPass {
  const arm2gc::netlist::Netlist* nl = nullptr;
  arm2gc::core::PartyOptions opts;        ///< schedule + plan tuning of the op
  arm2gc::core::PlanCache* cache = nullptr;  ///< the cache the op's planner uses
  arm2gc::core::ConeMemo* memo = nullptr;
  arm2gc::netlist::BitVec pub_bits;
  const arm2gc::core::StreamProvider* streams = nullptr;
};
/// Returns the number of cycles planned.
std::uint64_t plan_pass(const PlanPass& p, Sums& sums, SpanLog& log, std::uint64_t op);

/// Adds one operation's OT and transport ledger to the gc.* sums.
void add_run_stats(Sums& sums, const arm2gc::core::RunStats& st, const arm2gc::gc::CommStats& comm);

/// Sets the per-layer metrics every workload reports from its sums.
void set_layer_metrics(Recorder& rec, const Sums& s, double ops);

}  // namespace e2e
