// served_mix: the serving deployment. One in-process GarblerService with two
// shards and a private seed on each ProgramSpec, driven by two closed-loop
// serve::run_client threads over loopback TCP. Both programs are registered:
// Hamming-160 on the ARM processor (97 cycles) and the TinyGarble AES-128
// netlist (10 cycles). Each client runs rounds of one Hamming and three AES
// operations in a seeded order, with fresh Bob inputs and its own evaluator
// WarmState per program, over precomputed OT. The short AES runs share
// shards with the longer Hamming runs, so head-of-line blocking shows in the
// tail; after the warm-up, cold planning is out of the way.
#include <array>
#include <atomic>
#include <barrier>
#include <exception>
#include <latch>
#include <memory>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "arm/arm2gc.h"
#include "circuits/tg_circuits.h"
#include "obs/metrics.h"
#include "programs/programs.h"
#include "serve/client.h"
#include "serve/service.h"
#include "workloads.h"

namespace e2e {

using namespace arm2gc;

namespace {

constexpr const char* kHost = "127.0.0.1";
constexpr int kClients = 2;
constexpr std::size_t kShards = 2;
/// One round per client: this many Hamming and AES operations, shuffled.
constexpr int kRoundHamming = 1;
constexpr int kRoundAes = 3;

/// One plain HTTP GET of the service's /metrics page ("" on failure).
std::string scrape_metrics(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, kHost, &addr.sin_addr);
  std::string body;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
    const std::string req = "GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
    if (::send(fd, req.data(), req.size(), MSG_NOSIGNAL) == static_cast<ssize_t>(req.size())) {
      char buf[4096];
      for (ssize_t n; (n = ::recv(fd, buf, sizeof buf, 0)) > 0;) body.append(buf, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  return body;
}

/// Mean of a scraped histogram in ms (sum over count; 0 when absent/empty).
double histogram_mean_ms(const std::string& page, const std::string& name) {
  const std::string pn = obs::Registry::prometheus_name(name);
  auto value = [&](const std::string& series) {
    const std::string key = "\n" + series + " ";
    const std::size_t at = page.find(key);
    return at == std::string::npos ? 0.0 : std::strtod(page.c_str() + at + key.size(), nullptr);
  };
  const double count = value(pn + "_count");
  return count > 0 ? value(pn + "_sum") / count / 1e6 : 0.0;
}

struct Served {
  std::string name;
  const netlist::Netlist* nl = nullptr;
  serve::ClientOptions copts;
  core::PartyOptions plan_opts;  ///< the client-side planner's options
  netlist::BitVec pub_bits;
  const core::StreamProvider* streams = nullptr;
  ProgramLedger ledger;
};

/// Everything one client thread owns.
struct Client {
  std::array<std::unique_ptr<core::WarmState>, 2> warm;
  std::array<std::unique_ptr<core::PlanCache>, 2> pass_cache;
  std::array<std::unique_ptr<core::ConeMemo>, 2> pass_memo;
  SplitMix rng{0};
  std::vector<OpCost> ops;
  std::vector<double> traced_ms;
  Sums sums;
};

}  // namespace

void run_served_mix(Recorder& rec) {
  const RunConfig& cfg = rec.cfg();
  Sums sums;

  const std::uint64_t b0 = wall_ns();
  const programs::Program prog = programs::hamming(5);
  const arm::Arm2Gc machine(prog.cfg, prog.words);
  sums.add("arm.build_ms", ms(wall_ns() - b0));

  // Alice's inputs are fixed when a program is registered; Bob's are fresh
  // on every operation.
  SplitMix setup = stream(cfg.seed, 3);
  const std::vector<std::uint32_t> ham_alice = setup.words(5);
  std::array<std::uint8_t, 16> aes_pt{};
  for (auto& x : aes_pt) x = static_cast<std::uint8_t>(setup.word());
  const circuits::TgInstance aes = circuits::tg_aes128(aes_pt, {});

  serve::ProgramSpec hspec;
  hspec.name = "hamming160";
  hspec.nl = &machine.cpu().nl;
  hspec.opts = machine.party_options(core::Role::Garbler);
  hspec.opts.private_seed = setup.block();
  hspec.alice_bits = machine.alice_input_bits(ham_alice);
  serve::ProgramSpec aspec;
  aspec.name = "aes128";
  aspec.nl = &aes.nl;
  aspec.opts.fixed_cycles = aes.cycles;
  aspec.opts.private_seed = setup.block();
  aspec.alice_bits = aes.alice;
  aspec.pub_bits = aes.pub;
  aspec.streams = &aes.streams;

  std::array<Served, 2> served;
  served[0].name = hspec.name;
  served[0].nl = hspec.nl;
  served[0].copts.halt_wire = machine.cpu().halt_wire;
  served[0].plan_opts = machine.party_options(core::Role::Evaluator);
  served[1].name = aspec.name;
  served[1].nl = aspec.nl;
  served[1].copts.fixed_cycles = aes.cycles;
  served[1].plan_opts.fixed_cycles = aes.cycles;
  served[1].pub_bits = aes.pub;
  served[1].streams = &aes.streams;
  for (Served& s : served) {
    s.copts.program = s.name;
    s.copts.ot_backend = gc::OtBackend::Precomp;
  }

  serve::ServiceOptions so;
  so.shards = kShards;
  if (cfg.trace) so.metrics_port = 0;
  serve::GarblerService service({hspec, aspec}, so);
  service.start();
  const std::uint16_t port = service.port();
  rec.load_threads = kClients;
  rec.connections = kClients;
  rec.note("service_shards", std::to_string(kShards));
  rec.note("ot_backend", "precomp");
  rec.note("mix", "rounds of 1 hamming160 + 3 aes128, seeded order");

  /// One checked served operation by client `cl` on program `p` (0 Hamming,
  /// 1 AES); false when it failed, which is recorded.
  auto run_op = [&](Client& cl, int p, std::uint64_t op, bool timed) -> bool {
    Served& s = served[static_cast<std::size_t>(p)];
    Expected want;
    netlist::BitVec bob;
    if (p == 0) {
      const std::vector<std::uint32_t> b = cl.rng.words(5);
      const arm::Arm2GcResult ref = machine.run_reference(ham_alice, b);
      want = {{ref_hamming(ham_alice, b)}, ref.cycles, machine.conventional_non_xor(ref.cycles)};
      bob = machine.bob_input_bits(b);
    } else {
      std::array<std::uint8_t, 16> key{};
      for (auto& x : key) x = static_cast<std::uint8_t>(cl.rng.word());
      want = {bytes_to_words(ref_aes128(key, aes_pt)), aes.cycles, aes.nl.count_non_free() * aes.cycles};
      bob.assign(128, false);
      for (std::size_t i = 0; i < 128; ++i) bob[i] = ((key[i / 8] >> (i % 8)) & 1u) != 0;
    }
    serve::ClientOptions copts = s.copts;
    copts.private_seed = cl.rng.block();

    const std::uint64_t root = rec.spans.next_id();
    const std::uint64_t c0 = thread_cpu_ns();
    const std::uint64_t t0 = wall_ns();
    serve::ClientResult res;
    std::string error;
    try {
      res = serve::run_client(kHost, port, *s.nl, copts, bob, s.pub_bits, s.streams,
                              cl.warm[static_cast<std::size_t>(p)].get());
    } catch (const std::exception& e) {
      error = std::string("protocol: ") + e.what();
    }
    const std::uint64_t dt = wall_ns() - t0;
    const std::uint64_t cpu = thread_cpu_ns() - c0;
    rec.spans.add({p == 0 ? "op.served.hamming160" : "op.served.aes128", root, 0, op, t0, dt,
                   thread_ordinal()});
    if (!error.empty()) {
      if (timed) rec.op_done(error, false);
      else rec.fatal("warm-up: " + error);
      return false;
    }
    Observed got;
    if (p == 0) {
      got.outputs = {machine.decode_output_bits(res.outputs).at(0)};
    } else {
      std::array<std::uint8_t, 16> ct{};
      for (std::size_t i = 0; i < 128 && i < res.outputs.size(); ++i) {
        if (res.outputs[i]) ct[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
      }
      got.outputs = bytes_to_words(ct);
    }
    // run_client itself rejects a run whose table digest differs from the
    // service's; the two digests are not handed out separately.
    const gc::CommStats comm = res.comm_total();
    got.cycles = res.cycles;
    got.garbled_non_xor = res.stats.garbled_non_xor;
    got.skipped_non_xor = res.stats.skipped_non_xor;
    got.non_xor_slots = res.stats.non_xor_slots;
    got.garbled_table_bytes = comm.garbled_table_bytes;
    std::string bad = check_op(want, got, s.ledger);
    if (bad.empty() && res.garbled_non_xor != got.garbled_non_xor) {
      bad = "service and client garbled counts differ";
    }
    if (!timed) {
      if (!bad.empty()) rec.fatal("warm-up: " + bad);
      return bad.empty();
    }
    rec.op_done(bad, !bad.empty());
    if (!bad.empty()) return false;
    cl.ops.push_back({ms(dt), comm.total(), got.garbled_non_xor});
    if (!cfg.trace) return true;

    cl.traced_ms.push_back(ms(dt));
    cl.sums.add("serve.client_cpu_ms", ms(cpu));
    cl.sums.add("serve.client_wait_ms", ms(dt - std::min(dt, cpu)));
    add_run_stats(cl.sums, res.stats, comm);
    plan_pass({s.nl, s.plan_opts, cl.pass_cache[static_cast<std::size_t>(p)].get(),
               cl.pass_memo[static_cast<std::size_t>(p)].get(), s.pub_bits, s.streams},
              cl.sums, rec.spans, op);
    return true;
  };

  std::atomic<std::uint64_t> next_op{0};  // op ids are unique across clients
  std::array<Client, kClients> clients;
  std::barrier warm_step(kClients);
  std::latch ready(kClients);
  std::latch go(1);
  std::uint64_t deadline = 0;  // written before `go` opens
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      Client& cl = clients[c];
      cl.rng = stream(cfg.seed, 10 + c);
      try {
        for (std::size_t p = 0; p < 2; ++p) {
          core::WarmState::Options w;
          w.ot_backend = served[p].copts.ot_backend;
          w.seed = cl.rng.block();
          cl.warm[p] = std::make_unique<core::WarmState>(core::Role::Evaluator, w);
          if (cfg.trace) {
            cl.pass_cache[p] = std::make_unique<core::PlanCache>(w.plan_cache_budget_bytes);
            cl.pass_memo[p] = std::make_unique<core::ConeMemo>(w.cone_memo_budget_bytes);
          }
        }
        // Warm-up (set-up): one run per client per program, both clients
        // starting each program together so the service's warm pool tends to
        // build a state per client.
        warm_step.arrive_and_wait();
        run_op(cl, 0, next_op++, false);
        warm_step.arrive_and_wait();
        run_op(cl, 1, next_op++, false);
        if (cfg.trace) {
          Sums discard;
          SpanLog none;
          for (std::size_t p = 0; p < 2; ++p) {
            plan_pass({served[p].nl, served[p].plan_opts, cl.pass_cache[p].get(),
                       cl.pass_memo[p].get(), served[p].pub_bits, served[p].streams},
                      discard, none, 0);
          }
        }
      } catch (const std::exception& e) {
        rec.fatal(std::string("client set-up: ") + e.what());
      }
      ready.count_down();
      go.wait();
      while (wall_ns() < deadline) {
        std::array<int, kRoundHamming + kRoundAes> round{};
        for (int i = 0; i < kRoundHamming + kRoundAes; ++i) round[static_cast<std::size_t>(i)] = i < kRoundHamming ? 0 : 1;
        for (std::size_t i = round.size() - 1; i > 0; --i) {
          std::swap(round[i], round[cl.rng.next() % (i + 1)]);
        }
        for (const int p : round) run_op(cl, p, next_op++, true);
      }
    });
  }
  ready.wait();
  const double setup_s = static_cast<double>(wall_ns() - cfg.t0_ns) / 1e9;
  if (cfg.trace) obs::Registry::instance().reset_values();  // phase means over the timed phase
  const serve::ServiceStats before = service.stats();
  const std::uint64_t cpu0 = process_cpu_ns();
  const std::uint64_t start = wall_ns();
  deadline = start + static_cast<std::uint64_t>(cfg.seconds * 1e9);
  go.count_down();
  for (std::thread& t : threads) t.join();
  const double phase_s = static_cast<double>(wall_ns() - start) / 1e9;
  const std::uint64_t phase_cpu = process_cpu_ns() - cpu0;

  std::vector<OpCost> ops;
  std::vector<double> traced_ms;
  for (Client& cl : clients) {
    ops.insert(ops.end(), cl.ops.begin(), cl.ops.end());
    traced_ms.insert(traced_ms.end(), cl.traced_ms.begin(), cl.traced_ms.end());
    sums.merge(cl.sums);
  }
  if (!cfg.trace) {
    service.stop();
    rec.end_to_end(setup_s, ops, phase_s, phase_cpu);
    return;
  }

  const std::string page = scrape_metrics(service.metrics_port());
  const serve::ServiceStats st = service.stats();
  service.stop();
  if (page.empty()) rec.fatal("could not scrape /metrics");
  if (std::FILE* f = std::fopen((cfg.out_dir + "/metrics-" + cfg.workload + "-seed" +
                                 std::to_string(cfg.seed) + ".txt").c_str(), "wb")) {
    std::fwrite(page.data(), 1, page.size(), f);
    std::fclose(f);
  }
  static const char* const kPhases[] = {"hello", "start", "begin",  "work",   "sample",
                                        "latch", "refill", "finish", "wrapup", "drain"};
  for (const char* ph : kPhases) {
    sums.add(std::string("serve.phase.") + ph + "_ms_mean",
             histogram_mean_ms(page, std::string("serve.phase.") + ph + "_ns"));
  }
  sums.add("serve.warm_checkout_ms_mean", histogram_mean_ms(page, "serve.warm_checkout_ns"));
  sums.add("serve.warm_hits", static_cast<double>(st.warm_hits));
  sums.add("serve.warm_misses", static_cast<double>(st.warm_misses));
  sums.add("serve.send_queue_high_water_bytes", static_cast<double>(st.send_queue_high_water));
  rec.note("timed_warm_misses", std::to_string(st.warm_misses - before.warm_misses));
  for (const Client& cl : clients) {
    for (const auto& w : cl.warm) {
      sums.add("core.plan.cache_entries", static_cast<double>(w->plan_cache().entries()));
      sums.add("core.plan.cache_evictions", static_cast<double>(w->plan_cache().evictions()));
    }
  }
  sums.add("trace.run_ms_p50", quantile(traced_ms, 0.5));
  sums.add("trace.ops", static_cast<double>(traced_ms.size()));
  set_layer_metrics(rec, sums, static_cast<double>(traced_ms.size()));
}

}  // namespace e2e
