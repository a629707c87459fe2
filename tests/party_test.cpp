// Party-endpoint API tests: the single-role endpoints over a real TCP
// socket must be a perfect stand-in for the in-process driver. Pinned here:
//   - two endpoints in two threads over TCP loopback == in-process
//     InMemoryDuplex bit-for-bit (outputs, table digest, garbled_non_xor,
//     per-class comm bytes) on fuzzed sequential netlists and on the ARM
//     Hamming-160 program;
//   - the evaluator's received-table digest equals the garbler's sent-table
//     digest on every transport (the cross-process content certificate);
//   - party-private seeds: endpoints seeded with *different* private
//     randomness still agree on outputs and on each other's digest (only
//     the label stream, and hence the digest value, moves);
//   - warm-state negative paths: a one-sided OT reset (desynced warm
//     extension state) fails loudly on the OT header/check — never a hang or
//     a wrong label — on both in-process transports, and endpoint abort
//     resets warm OT state so the *next* run recovers without rebuilding
//     the session (base OTs simply rerun).
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "arm/arm2gc.h"
#include "builder/circuit_builder.h"
#include "builder/stdlib.h"
#include "core/party.h"
#include "core/skipgate.h"
#include "crypto/rng.h"
#include "gc/transport.h"
#include "gc/transport_socket.h"
#include "programs/programs.h"
#include "test_util.h"

namespace {

using namespace arm2gc;
using crypto::Block;
using crypto::block_from_u64;
using a2gtest::to_bits;

/// Random sequential netlist with inputs/dffs of every ownership class, so
/// reset OT batches, streamed batches and direct labels all carry traffic.
netlist::Netlist random_party_netlist(crypto::CtrRng& rng) {
  netlist::Netlist nl;
  constexpr std::uint32_t kInPerParty = 3;
  for (std::uint32_t i = 0; i < kInPerParty; ++i) {
    nl.inputs.push_back(netlist::Input{netlist::Owner::Alice, false, i, ""});
    nl.inputs.push_back(netlist::Input{netlist::Owner::Bob, false, i, ""});
    nl.inputs.push_back(netlist::Input{netlist::Owner::Public, false, i, ""});
  }
  nl.inputs.push_back(netlist::Input{netlist::Owner::Bob, true, 0, ""});
  nl.inputs.push_back(netlist::Input{netlist::Owner::Alice, true, 0, ""});
  for (std::uint32_t i = 0; i < 3; ++i) {
    netlist::Dff d;
    switch (rng.next_below(3)) {
      case 0: d.init = netlist::Dff::Init::Zero; break;
      case 1:
        d.init = netlist::Dff::Init::AliceBit;
        d.init_index = i;
        break;
      default:
        d.init = netlist::Dff::Init::BobBit;
        d.init_index = i;
        break;
    }
    nl.dffs.push_back(d);
  }
  const int num_gates = 25 + static_cast<int>(rng.next_below(25));
  for (int g = 0; g < num_gates; ++g) {
    const auto limit = static_cast<std::uint32_t>(2 + nl.inputs.size() + nl.dffs.size() +
                                                  static_cast<std::size_t>(g));
    nl.gates.push_back(netlist::Gate{static_cast<netlist::WireId>(rng.next_below(limit)),
                                     static_cast<netlist::WireId>(rng.next_below(limit)),
                                     static_cast<netlist::TruthTable>(rng.next_below(16))});
  }
  const auto nw = static_cast<std::uint32_t>(nl.num_wires());
  for (auto& d : nl.dffs) {
    d.d = static_cast<netlist::WireId>(rng.next_below(nw));
    d.d_invert = rng.next_bool();
  }
  for (int o = 0; o < 5; ++o) {
    nl.outputs.push_back(netlist::OutputPort{static_cast<netlist::WireId>(rng.next_below(nw)),
                                             rng.next_bool(), ""});
  }
  nl.outputs_every_cycle = true;
  return nl;
}

struct SocketRun {
  core::RunResult garbler;
  core::RunResult evaluator;
  gc::CommStats combined_comm;  ///< garbler sent + evaluator sent
};

/// Two endpoints over a real TCP loopback connection, garbler on a worker
/// thread — the two-process deployment, minus the fork.
SocketRun socket_run(const netlist::Netlist& nl, const core::RunOptions& opts,
                     const netlist::BitVec& a, const netlist::BitVec& b,
                     const netlist::BitVec& p, const core::StreamProvider* streams,
                     std::optional<Block> garbler_private = {},
                     std::optional<Block> evaluator_private = {}) {
  gc::SocketListener listener("127.0.0.1", 0);
  const std::uint16_t port = listener.port();

  SocketRun out;
  gc::CommStats garbler_sent;
  std::exception_ptr garbler_error;
  std::thread garbler_thread([&] {
    try {
      auto sock = gc::SocketDuplex::connect("127.0.0.1", port);
      core::PartyOptions po = core::party_options(core::Role::Garbler, opts);
      if (garbler_private) po.private_seed = *garbler_private;
      core::GarblerEndpoint endpoint(nl, po, sock->end());
      out.garbler = endpoint.run(a, p, streams);
      sock->flush();
      garbler_sent = sock->sent();
    } catch (...) {
      garbler_error = std::current_exception();
    }
  });

  auto sock = listener.accept();
  try {
    core::PartyOptions po = core::party_options(core::Role::Evaluator, opts);
    if (evaluator_private) po.private_seed = *evaluator_private;
    core::EvaluatorEndpoint endpoint(nl, po, sock->end());
    out.evaluator = endpoint.run(b, p, streams);
  } catch (...) {
    sock->close();  // unblock the peer before propagating
    garbler_thread.join();
    throw;
  }
  garbler_thread.join();
  if (garbler_error) std::rethrow_exception(garbler_error);

  out.combined_comm = garbler_sent;
  out.combined_comm += sock->sent();
  return out;
}

void expect_matches_reference(const SocketRun& s, const core::RunResult& ref) {
  // Garbler side reproduces the in-process run bit for bit.
  EXPECT_EQ(s.garbler.sampled_outputs, ref.sampled_outputs);
  EXPECT_EQ(s.garbler.final_outputs, ref.final_outputs);
  EXPECT_EQ(s.garbler.final_cycle, ref.final_cycle);
  EXPECT_EQ(s.garbler.stats.cycles, ref.stats.cycles);
  EXPECT_EQ(s.garbler.stats.garbled_non_xor, ref.stats.garbled_non_xor);
  EXPECT_EQ(s.garbler.stats.skipped_non_xor, ref.stats.skipped_non_xor);
  EXPECT_EQ(s.garbler.stats.non_xor_slots, ref.stats.non_xor_slots);
  EXPECT_TRUE(s.garbler.stats.table_digest == ref.stats.table_digest);
  EXPECT_EQ(s.garbler.stats.ot_choices, ref.stats.ot_choices);
  EXPECT_EQ(s.garbler.stats.ot_batches, ref.stats.ot_batches);
  // Both parties agree on shape and content.
  EXPECT_EQ(s.evaluator.final_cycle, s.garbler.final_cycle);
  EXPECT_EQ(s.evaluator.stats.garbled_non_xor, s.garbler.stats.garbled_non_xor);
  EXPECT_TRUE(s.evaluator.stats.table_digest == s.garbler.stats.table_digest);
  // Every byte either party sent is accounted identically to the in-memory
  // duplex of the same run.
  EXPECT_EQ(s.combined_comm.garbled_table_bytes, ref.stats.comm.garbled_table_bytes);
  EXPECT_EQ(s.combined_comm.input_label_bytes, ref.stats.comm.input_label_bytes);
  EXPECT_EQ(s.combined_comm.ot_bytes, ref.stats.comm.ot_bytes);
  EXPECT_EQ(s.combined_comm.output_bytes, ref.stats.comm.output_bytes);
}

TEST(PartyEndpoints, SocketMatchesInMemoryOnFuzzedNetlists) {
  crypto::CtrRng rng(block_from_u64(4242));
  for (int seed = 0; seed < 4; ++seed) {
    const netlist::Netlist nl = random_party_netlist(rng);
    const netlist::BitVec a = to_bits(rng.next_u64(), 3);
    const netlist::BitVec b = to_bits(rng.next_u64(), 3);
    const netlist::BitVec p = to_bits(rng.next_u64(), 3);
    const std::uint64_t aw = rng.next_u64();
    const std::uint64_t bw = rng.next_u64();
    core::StreamProvider streams;
    streams.alice = [aw](std::uint64_t c) { return netlist::BitVec{((aw >> c) & 1u) != 0}; };
    streams.bob = [bw](std::uint64_t c) { return netlist::BitVec{((bw >> c) & 1u) != 0}; };

    // Rotate the scheme per seed: Classic4 exercises the derived fresh-label
    // path, Grr3/HalfGates the row-reduced tables.
    const gc::Scheme scheme = seed % 3 == 0   ? gc::Scheme::Classic4
                              : seed % 3 == 1 ? gc::Scheme::Grr3
                                              : gc::Scheme::HalfGates;

    for (const core::Mode mode : {core::Mode::SkipGate, core::Mode::Conventional}) {
      for (const gc::OtBackend ot :
           {gc::OtBackend::Ideal, gc::OtBackend::Iknp, gc::OtBackend::Precomp}) {
        // The default layout is one cone for these small netlists; 8 gates
        // per cone cuts them into several interdependent slices.
        for (const std::size_t cone_gates : {std::size_t{512}, std::size_t{8}}) {
          core::RunOptions opts;
          opts.mode = mode;
          opts.scheme = scheme;
          opts.fixed_cycles = 6;
          opts.exec.ot_backend = ot;
          opts.exec.cone_target_gates = cone_gates;
          const core::RunResult ref = core::SkipGateDriver(nl, opts).run(a, b, p, &streams);
          const SocketRun s = socket_run(nl, opts, a, b, p, &streams);
          expect_matches_reference(s, ref);
          EXPECT_EQ(s.combined_comm.total(), ref.stats.comm.total()) << "seed " << seed;
        }
      }
    }
  }
}

TEST(PartyEndpoints, SocketMatchesInMemoryArmHamming160) {
  const programs::Program prog = programs::hamming(5);
  const arm::Arm2Gc machine(prog.cfg, prog.words);
  const std::vector<std::uint32_t> a = {0x0001F00Du, 2, 3, 4, 5};
  const std::vector<std::uint32_t> b = {6, 7, 8, 0xFF00FF00u, 10};

  core::ExecOptions exec;
  exec.ot_backend = gc::OtBackend::Iknp;
  const arm::Arm2GcResult ref = machine.run(a, b, 1u << 20, gc::Scheme::HalfGates, exec);
  const arm::Arm2GcResult iss = machine.run_reference(a, b);
  ASSERT_EQ(ref.outputs, iss.outputs);

  gc::SocketListener listener("127.0.0.1", 0);
  const std::uint16_t port = listener.port();
  arm::Arm2GcResult gres;
  gc::CommStats garbler_sent;
  std::exception_ptr gerr;
  std::thread garbler_thread([&] {
    try {
      auto sock = gc::SocketDuplex::connect("127.0.0.1", port);
      gres = machine.run_garbler(
          a, sock->end(),
          machine.party_options(core::Role::Garbler, 1u << 20, gc::Scheme::HalfGates, exec));
      sock->flush();
      garbler_sent = sock->sent();
    } catch (...) {
      gerr = std::current_exception();
    }
  });
  auto sock = listener.accept();
  const arm::Arm2GcResult eres = machine.run_evaluator(
      b, sock->end(),
      machine.party_options(core::Role::Evaluator, 1u << 20, gc::Scheme::HalfGates, exec));
  garbler_thread.join();
  ASSERT_FALSE(gerr);

  EXPECT_EQ(gres.outputs, ref.outputs);
  EXPECT_EQ(gres.cycles, ref.cycles);
  EXPECT_EQ(eres.cycles, ref.cycles);
  EXPECT_EQ(gres.stats.garbled_non_xor, ref.stats.garbled_non_xor);
  EXPECT_TRUE(gres.stats.table_digest == ref.stats.table_digest);
  EXPECT_TRUE(eres.stats.table_digest == ref.stats.table_digest);
  EXPECT_TRUE(eres.outputs.empty());  // Bob does not learn the result

  gc::CommStats combined = garbler_sent;
  combined += sock->sent();
  EXPECT_EQ(combined.garbled_table_bytes, ref.stats.comm.garbled_table_bytes);
  EXPECT_EQ(combined.input_label_bytes, ref.stats.comm.input_label_bytes);
  EXPECT_EQ(combined.ot_bytes, ref.stats.comm.ot_bytes);
  EXPECT_EQ(combined.output_bytes, ref.stats.comm.output_bytes);
}

TEST(PartyEndpoints, PrivatePerPartySeedsStillAgree) {
  // Each party seeding its own randomness moves the label stream (and hence
  // the digest *value*) but nothing observable: outputs stay correct and the
  // two parties' digests stay equal — the deployment configuration of
  // tools/arm2gc_party.
  crypto::CtrRng rng(block_from_u64(5151));
  const netlist::Netlist nl = random_party_netlist(rng);
  const netlist::BitVec a = to_bits(rng.next_u64(), 3);
  const netlist::BitVec b = to_bits(rng.next_u64(), 3);
  const netlist::BitVec p = to_bits(rng.next_u64(), 3);
  core::StreamProvider streams;
  streams.alice = [](std::uint64_t c) { return netlist::BitVec{(c & 1) != 0}; };
  streams.bob = [](std::uint64_t c) { return netlist::BitVec{(c & 2) != 0}; };

  core::RunOptions opts;
  opts.fixed_cycles = 6;
  opts.exec.ot_backend = gc::OtBackend::Iknp;
  const core::RunResult ref = core::SkipGateDriver(nl, opts).run(a, b, p, &streams);
  const SocketRun s = socket_run(nl, opts, a, b, p, &streams,
                                 block_from_u64(0xA11CE5EED), block_from_u64(0xB0B5EED));
  EXPECT_EQ(s.garbler.sampled_outputs, ref.sampled_outputs);
  EXPECT_EQ(s.garbler.stats.garbled_non_xor, ref.stats.garbled_non_xor);
  EXPECT_TRUE(s.garbler.stats.table_digest == s.evaluator.stats.table_digest);
  // Fresh garbler randomness => a different (but internally consistent)
  // table stream.
  EXPECT_FALSE(s.garbler.stats.table_digest == ref.stats.table_digest);
  // Non-label traffic volumes are seed-independent.
  EXPECT_EQ(s.combined_comm.total(), ref.stats.comm.total());
}

TEST(PartyEndpoints, EvaluatorDigestMatchesGarblerOverThreadedPipe) {
  builder::CircuitBuilder cb;
  const builder::Bus x = cb.input_bus(netlist::Owner::Alice, 8, 0);
  const builder::Bus y = cb.input_bus(netlist::Owner::Bob, 8, 0);
  cb.output_bus(builder::mul_lower(cb, x, y, 8));
  const netlist::Netlist nl = cb.take();

  gc::ThreadedPipeDuplex duplex(1u << 12);
  core::RunOptions opts;
  opts.fixed_cycles = 1;
  core::RunResult gres;
  std::thread garbler_thread([&] {
    core::GarblerEndpoint endpoint(nl, core::party_options(core::Role::Garbler, opts),
                                   duplex.garbler_end());
    gres = endpoint.run(to_bits(13, 8));
  });
  core::EvaluatorEndpoint endpoint(nl, core::party_options(core::Role::Evaluator, opts),
                                   duplex.evaluator_end());
  const core::RunResult eres = endpoint.run(to_bits(11, 8));
  garbler_thread.join();

  EXPECT_EQ(a2gtest::from_bits(gres.final_outputs, 0, 8), (13u * 11u) & 0xFFu);
  EXPECT_GT(gres.stats.garbled_non_xor, 0u);
  EXPECT_TRUE(eres.stats.table_digest == gres.stats.table_digest);
}

// --- warm-state negative paths ---------------------------------------------------

netlist::Netlist two_party_adder() {
  builder::CircuitBuilder cb;
  const builder::Bus x = cb.input_bus(netlist::Owner::Alice, 4, 0);
  const builder::Bus y = cb.input_bus(netlist::Owner::Bob, 4, 0);
  cb.output_bus(builder::add(cb, x, y));
  return cb.take();
}

core::WarmState::Options iknp_warm_options() {
  core::WarmState::Options w;
  w.ot_backend = gc::OtBackend::Iknp;
  return w;
}

/// One-sided OT desync (here: an explicit one-sided reset, the same state a
/// run aborted between the receiver's request and the sender's flush leaves
/// behind) must fail on the OT header/check block — a loud runtime_error,
/// not a hang and never a mis-delivered label — on both in-process
/// transports. Endpoint abort then resets *both* sides, so the run after
/// the failure recovers with a fresh base phase.
TEST(PartyWarmState, OneSidedOtDesyncFailsLoudThenRecovers) {
  const netlist::Netlist nl = two_party_adder();
  for (const core::TransportKind tk :
       {core::TransportKind::InMemory, core::TransportKind::ThreadedPipe}) {
    core::WarmState gwarm(core::Role::Garbler, iknp_warm_options());
    core::WarmState ewarm(core::Role::Evaluator, iknp_warm_options());
    core::RunOptions opts;
    opts.fixed_cycles = 1;
    opts.exec.transport = tk;
    opts.exec.ot_backend = gc::OtBackend::Iknp;
    opts.exec.garbler_warm = &gwarm;
    opts.exec.evaluator_warm = &ewarm;

    const core::RunResult warmup =
        core::SkipGateDriver(nl, opts).run(to_bits(3, 4), to_bits(5, 4));
    EXPECT_EQ(a2gtest::from_bits(warmup.final_outputs, 0, 4), 8u);
    EXPECT_EQ(warmup.stats.ot_base_ots, gc::kOtKappa);

    // Desync: only the garbler's extension state drops back to the base
    // phase; the evaluator's still rides the old streams.
    gwarm.reset_ot();
    try {
      (void)core::SkipGateDriver(nl, opts).run(to_bits(1, 4), to_bits(2, 4));
      FAIL() << "desynced warm OT state must not produce a result";
    } catch (const gc::TransportClosed&) {
      FAIL() << "desync surfaced as a transport teardown, not the OT check";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("otext"), std::string::npos) << e.what();
    }

    // The failed run's endpoint abort reset both warm states: the next run
    // re-bases (base OTs run again) and succeeds — recovery without
    // rebuilding caches or session.
    const core::RunResult recovered =
        core::SkipGateDriver(nl, opts).run(to_bits(6, 4), to_bits(7, 4));
    EXPECT_EQ(a2gtest::from_bits(recovered.final_outputs, 0, 4), 13u);
    EXPECT_EQ(recovered.stats.ot_base_ots, gc::kOtKappa);
  }
}

/// A run that throws mid-protocol *between* the evaluator's OT request and
/// the garbler's matching flush leaves the two extension streams desynced;
/// the endpoints' abort path resets both, so the next run over the same
/// warm pair recovers (and provably re-bases).
TEST(PartyWarmState, AbortBetweenRequestAndFlushRecovers) {
  const netlist::Netlist nl = two_party_adder();
  core::WarmState gwarm(core::Role::Garbler, iknp_warm_options());
  core::WarmState ewarm(core::Role::Evaluator, iknp_warm_options());
  core::RunOptions opts;
  opts.fixed_cycles = 1;
  opts.exec.ot_backend = gc::OtBackend::Iknp;
  opts.exec.garbler_warm = &gwarm;
  opts.exec.evaluator_warm = &ewarm;

  const core::RunResult first =
      core::SkipGateDriver(nl, opts).run(to_bits(2, 4), to_bits(3, 4));
  EXPECT_EQ(first.stats.ot_base_ots, gc::kOtKappa);

  // Alice's bits come up short: the garbler throws inside reset(), after
  // the evaluator's ot_reset request already advanced the receiver streams.
  EXPECT_THROW(
      (void)core::SkipGateDriver(nl, opts).run(to_bits(1, 2), to_bits(3, 4)),
      std::out_of_range);

  const core::RunResult recovered =
      core::SkipGateDriver(nl, opts).run(to_bits(9, 4), to_bits(4, 4));
  EXPECT_EQ(a2gtest::from_bits(recovered.final_outputs, 0, 4), 13u);
  EXPECT_EQ(recovered.stats.ot_base_ots, gc::kOtKappa);  // fresh base: reset worked
}

core::WarmState::Options precomp_warm_options(std::size_t pool) {
  core::WarmState::Options w;
  w.ot_backend = gc::OtBackend::Precomp;
  w.ot_pool = pool;
  return w;
}

/// The precomputed backend adds a second desync surface on top of the IKNP
/// streams: the two random-OT pools must agree on consumption and refill
/// schedule. A one-sided pool reset (the state a one-sided crash leaves)
/// makes one party refill where the other derandomizes, so the very first
/// OT frame of the next run is read against the wrong layout — a loud
/// runtime_error on an OT header, never a silent wrong label, on both
/// in-process transports. The failed run's abort resets both sides, and
/// recovery re-bases from scratch.
TEST(PartyWarmState, PrecompOneSidedPoolResetFailsLoudThenRecovers) {
  const netlist::Netlist nl = two_party_adder();
  for (const core::TransportKind tk :
       {core::TransportKind::InMemory, core::TransportKind::ThreadedPipe}) {
    core::WarmState gwarm(core::Role::Garbler, precomp_warm_options(8));
    core::WarmState ewarm(core::Role::Evaluator, precomp_warm_options(8));
    core::RunOptions opts;
    opts.fixed_cycles = 1;
    opts.exec.transport = tk;
    opts.exec.ot_backend = gc::OtBackend::Precomp;
    opts.exec.ot_pool = 8;
    opts.exec.garbler_warm = &gwarm;
    opts.exec.evaluator_warm = &ewarm;

    const core::RunResult warmup =
        core::SkipGateDriver(nl, opts).run(to_bits(3, 4), to_bits(5, 4));
    EXPECT_EQ(a2gtest::from_bits(warmup.final_outputs, 0, 4), 8u);
    EXPECT_EQ(warmup.stats.ot_base_ots, gc::kOtKappa);
    // 4 of the 8 banked OTs consumed: a half-drained pool survives runs.
    EXPECT_EQ(gwarm.ot_pool_available(), 4u);
    EXPECT_EQ(ewarm.ot_pool_available(), 4u);

    // One-sided drop: the garbler's pool (and inner IKNP state) restart
    // from scratch while the evaluator still rides the old pool.
    gwarm.reset_ot();
    try {
      (void)core::SkipGateDriver(nl, opts).run(to_bits(1, 4), to_bits(2, 4));
      FAIL() << "desynced warm OT pools must not produce a result";
    } catch (const gc::TransportClosed&) {
      FAIL() << "desync surfaced as a transport teardown, not the OT check";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("ot"), std::string::npos) << e.what();
    }

    const core::RunResult recovered =
        core::SkipGateDriver(nl, opts).run(to_bits(6, 4), to_bits(7, 4));
    EXPECT_EQ(a2gtest::from_bits(recovered.final_outputs, 0, 4), 13u);
    EXPECT_EQ(recovered.stats.ot_base_ots, gc::kOtKappa);

    // The mirror-image drop — evaluator refills, garbler derandomizes —
    // must fail just as loudly (the sender reads an IKNP base frame where
    // it expects a derand header, or vice versa).
    ewarm.reset_ot();
    try {
      (void)core::SkipGateDriver(nl, opts).run(to_bits(2, 4), to_bits(2, 4));
      FAIL() << "desynced warm OT pools must not produce a result";
    } catch (const gc::TransportClosed&) {
      FAIL() << "desync surfaced as a transport teardown, not the OT check";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("ot"), std::string::npos) << e.what();
    }
    const core::RunResult again =
        core::SkipGateDriver(nl, opts).run(to_bits(6, 4), to_bits(7, 4));
    EXPECT_EQ(a2gtest::from_bits(again.final_outputs, 0, 4), 13u);
    EXPECT_EQ(again.stats.ot_base_ots, gc::kOtKappa);
  }
}

/// A mid-protocol throw with a half-consumed pool (the garbler dies inside
/// reset() after the evaluator's request consumed pool entries) must leave
/// warm state the next run can use: abort drops both pools and the inner
/// extension streams, so the retry re-bases cleanly instead of
/// derandomizing against a half-advanced pool.
TEST(PartyWarmState, PrecompAbortWithHalfConsumedPoolRecovers) {
  const netlist::Netlist nl = two_party_adder();
  core::WarmState gwarm(core::Role::Garbler, precomp_warm_options(8));
  core::WarmState ewarm(core::Role::Evaluator, precomp_warm_options(8));
  core::RunOptions opts;
  opts.fixed_cycles = 1;
  opts.exec.ot_backend = gc::OtBackend::Precomp;
  opts.exec.ot_pool = 8;
  opts.exec.garbler_warm = &gwarm;
  opts.exec.evaluator_warm = &ewarm;

  const core::RunResult first =
      core::SkipGateDriver(nl, opts).run(to_bits(2, 4), to_bits(3, 4));
  EXPECT_EQ(first.stats.ot_base_ots, gc::kOtKappa);
  EXPECT_EQ(gwarm.ot_pool_available(), 4u);

  // Alice's bits come up short: the garbler throws inside reset(), after
  // the evaluator's ot_reset request already drew on its pool.
  EXPECT_THROW(
      (void)core::SkipGateDriver(nl, opts).run(to_bits(1, 2), to_bits(3, 4)),
      std::out_of_range);

  const core::RunResult recovered =
      core::SkipGateDriver(nl, opts).run(to_bits(9, 4), to_bits(4, 4));
  EXPECT_EQ(a2gtest::from_bits(recovered.final_outputs, 0, 4), 13u);
  EXPECT_EQ(recovered.stats.ot_base_ots, gc::kOtKappa);  // fresh base: reset worked
}

/// The pool refill schedule is a deterministic function of the pool target,
/// so a WarmState banked at one size can never be driven at another: the
/// endpoint rejects the pairing at construction instead of desyncing the
/// peer mid-run.
TEST(PartyWarmState, PrecompWarmPoolSizeMismatchRejected) {
  const netlist::Netlist nl = two_party_adder();
  core::WarmState gwarm(core::Role::Garbler, precomp_warm_options(8));
  core::WarmState ewarm(core::Role::Evaluator, precomp_warm_options(8));
  core::RunOptions opts;
  opts.fixed_cycles = 1;
  opts.exec.ot_backend = gc::OtBackend::Precomp;
  opts.exec.ot_pool = 16;  // != the warm states' 8
  opts.exec.garbler_warm = &gwarm;
  opts.exec.evaluator_warm = &ewarm;
  EXPECT_THROW((void)core::SkipGateDriver(nl, opts).run(to_bits(2, 4), to_bits(3, 4)),
               std::invalid_argument);
}

// --- fault injection (a2gtest::FaultyDuplex) -------------------------------------

/// Outcome of one fault-injected two-thread endpoint run.
struct FaultRun {
  bool garbler_closed = false;    ///< garbler surfaced gc::TransportClosed
  bool evaluator_closed = false;  ///< evaluator surfaced gc::TransportClosed
  std::string garbler_other;     ///< non-TransportClosed failure text (empty = none)
  std::string evaluator_other;
};

/// Garbler on a worker thread, evaluator on this one, over the faulty pair;
/// endpoint run() handles its own abort (warm OT reset) before rethrowing.
FaultRun faulty_run(const netlist::Netlist& nl, const core::RunOptions& opts,
                    a2gtest::FaultyDuplex& duplex, core::WarmState* gwarm,
                    core::WarmState* ewarm, const netlist::BitVec& a,
                    const netlist::BitVec& b) {
  FaultRun out;
  std::thread garbler_thread([&] {
    try {
      core::GarblerEndpoint endpoint(nl, core::party_options(core::Role::Garbler, opts),
                                     duplex.garbler_end(), gwarm);
      (void)endpoint.run(a);
    } catch (const gc::TransportClosed&) {
      out.garbler_closed = true;
    } catch (const std::exception& e) {
      out.garbler_other = e.what();
    }
  });
  try {
    core::EvaluatorEndpoint endpoint(nl, core::party_options(core::Role::Evaluator, opts),
                                     duplex.evaluator_end(), ewarm);
    (void)endpoint.run(b);
  } catch (const gc::TransportClosed&) {
    out.evaluator_closed = true;
  } catch (const std::exception& e) {
    out.evaluator_other = e.what();
  }
  garbler_thread.join();
  return out;
}

/// Short reads, partial writes and mid-frame closes at assorted byte offsets
/// (a peer dying mid-protocol) must surface as gc::TransportClosed on BOTH
/// endpoints — never a hang, never a wrong result — and a subsequent run on
/// the same WarmState pair must be byte-identical to an undisturbed warm
/// run: outputs, table digest, per-class comm, and a fresh base-OT phase
/// (the abort path re-based the extension state).
TEST(PartyFaultInjection, MidStreamCloseSurfacesTransportClosedAndWarmRecovers) {
  const netlist::Netlist nl = two_party_adder();
  core::RunOptions opts;
  opts.fixed_cycles = 1;
  opts.exec.ot_backend = gc::OtBackend::Iknp;

  // The undisturbed reference (cold warm states; endpoint runs are
  // deterministic, so every later cold-equivalent run must reproduce it).
  core::WarmState gref(core::Role::Garbler, iknp_warm_options());
  core::WarmState eref(core::Role::Evaluator, iknp_warm_options());
  opts.exec.garbler_warm = &gref;
  opts.exec.evaluator_warm = &eref;
  const core::RunResult ref = core::SkipGateDriver(nl, opts).run(to_bits(9, 4), to_bits(6, 4));
  EXPECT_EQ(a2gtest::from_bits(ref.final_outputs, 0, 4), 15u);

  struct Case {
    bool on_garbler;   ///< which side trips
    bool on_send;      ///< partial write (else short read)
    std::uint64_t at;  ///< trip point in blocks (odd values land mid-frame)
  };
  // Trip points sit inside the actual per-direction traffic: the garbler
  // sends only ~18 blocks here (tables + labels; the big IKNP matrix flows
  // evaluator -> garbler), so garbler-send and evaluator-recv trips must
  // stay below that, while trips on the other direction can land inside
  // the 257-block extension matrix.
  const Case cases[] = {
      {true, true, 1},   {true, true, 9},   {true, false, 3},  {true, false, 33},
      {false, true, 1},  {false, true, 13}, {false, false, 7}, {false, false, 13},
  };
  for (const Case& c : cases) {
    core::WarmState gwarm(core::Role::Garbler, iknp_warm_options());
    core::WarmState ewarm(core::Role::Evaluator, iknp_warm_options());
    opts.exec.garbler_warm = &gwarm;
    opts.exec.evaluator_warm = &ewarm;

    a2gtest::FaultyDuplex faulty(1u << 12);
    if (c.on_garbler && c.on_send) faulty.fail_garbler_send_after(c.at);
    if (c.on_garbler && !c.on_send) faulty.fail_garbler_recv_after(c.at);
    if (!c.on_garbler && c.on_send) faulty.fail_evaluator_send_after(c.at);
    if (!c.on_garbler && !c.on_send) faulty.fail_evaluator_recv_after(c.at);

    const FaultRun r =
        faulty_run(nl, opts, faulty, &gwarm, &ewarm, to_bits(9, 4), to_bits(6, 4));
    EXPECT_TRUE(r.garbler_closed) << "garbler: " << r.garbler_other;
    EXPECT_TRUE(r.evaluator_closed) << "evaluator: " << r.evaluator_other;

    // Recovery on the same warm pair over a fresh transport: byte-identical
    // to the reference, and provably re-based.
    const core::RunResult rec =
        core::SkipGateDriver(nl, opts).run(to_bits(9, 4), to_bits(6, 4));
    EXPECT_EQ(rec.final_outputs, ref.final_outputs);
    EXPECT_TRUE(rec.stats.table_digest == ref.stats.table_digest);
    EXPECT_EQ(rec.stats.garbled_non_xor, ref.stats.garbled_non_xor);
    EXPECT_EQ(rec.stats.comm.garbled_table_bytes, ref.stats.comm.garbled_table_bytes);
    EXPECT_EQ(rec.stats.comm.input_label_bytes, ref.stats.comm.input_label_bytes);
    EXPECT_EQ(rec.stats.comm.ot_bytes, ref.stats.comm.ot_bytes);
    EXPECT_EQ(rec.stats.comm.output_bytes, ref.stats.comm.output_bytes);
    EXPECT_EQ(rec.stats.ot_base_ots, gc::kOtKappa);
  }
}

/// Same teardown discipline under the precomputed-OT backend, where a dying
/// peer can leave a half-consumed random-OT pool behind: the release path is
/// the abort path, so the next run on the same warm pair re-banks and is
/// byte-identical to an undisturbed one.
TEST(PartyFaultInjection, PrecompMidStreamCloseRecoversByteIdentical) {
  const netlist::Netlist nl = two_party_adder();
  core::RunOptions opts;
  opts.fixed_cycles = 1;
  opts.exec.ot_backend = gc::OtBackend::Precomp;
  opts.exec.ot_pool = 8;

  core::WarmState gref(core::Role::Garbler, precomp_warm_options(8));
  core::WarmState eref(core::Role::Evaluator, precomp_warm_options(8));
  opts.exec.garbler_warm = &gref;
  opts.exec.evaluator_warm = &eref;
  const core::RunResult ref = core::SkipGateDriver(nl, opts).run(to_bits(3, 4), to_bits(4, 4));

  core::WarmState gwarm(core::Role::Garbler, precomp_warm_options(8));
  core::WarmState ewarm(core::Role::Evaluator, precomp_warm_options(8));
  opts.exec.garbler_warm = &gwarm;
  opts.exec.evaluator_warm = &ewarm;
  // First trip lands inside the cold base/extension phase (the evaluator's
  // big matrix); the recovery run then re-banks the pool, so the second
  // faulty run is warm — the evaluator sends only a handful of small frames
  // there, and its trip must sit inside that short stream.
  for (const std::uint64_t at : {5ull, 3ull}) {
    a2gtest::FaultyDuplex faulty(1u << 12);
    faulty.fail_evaluator_send_after(at);  // the receiver-first OT frames die
    const FaultRun r =
        faulty_run(nl, opts, faulty, &gwarm, &ewarm, to_bits(3, 4), to_bits(4, 4));
    EXPECT_TRUE(r.garbler_closed) << "garbler: " << r.garbler_other;
    EXPECT_TRUE(r.evaluator_closed) << "evaluator: " << r.evaluator_other;

    const core::RunResult rec =
        core::SkipGateDriver(nl, opts).run(to_bits(3, 4), to_bits(4, 4));
    EXPECT_EQ(rec.final_outputs, ref.final_outputs);
    EXPECT_TRUE(rec.stats.table_digest == ref.stats.table_digest);
    EXPECT_EQ(rec.stats.comm.ot_bytes, ref.stats.comm.ot_bytes);
    EXPECT_EQ(rec.stats.ot_base_ots, gc::kOtKappa);
  }
}

/// Session-level recovery: an ARM run that throws mid-protocol
/// (max_cycles exhausted) aborts both endpoints; the session's next run
/// re-bases and computes correctly — no session rebuild.
TEST(PartyWarmState, ArmSessionRecoversAfterMidProtocolThrow) {
  const auto prog = arm::assemble(
      "ldr r4, [r0]\n"
      "ldr r5, [r1]\n"
      "add r4, r4, r5\n"
      "str r4, [r2]\n"
      "swi 0\n");
  arm::MemoryConfig cfg;
  cfg.imem_words = 16;
  cfg.alice_words = cfg.bob_words = cfg.out_words = 1;
  cfg.ram_words = 16;
  const arm::Arm2Gc machine(cfg, prog);

  core::ExecOptions exec;
  exec.ot_backend = gc::OtBackend::Iknp;
  arm::Arm2Gc::Session session(machine, exec);

  const arm::Arm2GcResult ok = session.run(std::vector<std::uint32_t>{40},
                                           std::vector<std::uint32_t>{2});
  EXPECT_EQ(ok.outputs[0], 42u);
  EXPECT_EQ(ok.stats.ot_base_ots, gc::kOtKappa);

  EXPECT_THROW((void)session.run(std::vector<std::uint32_t>{1},
                                 std::vector<std::uint32_t>{2}, /*max_cycles=*/2),
               std::runtime_error);

  const arm::Arm2GcResult recovered = session.run(std::vector<std::uint32_t>{30},
                                                  std::vector<std::uint32_t>{12});
  EXPECT_EQ(recovered.outputs[0], 42u);
  EXPECT_EQ(recovered.stats.ot_base_ots, gc::kOtKappa);  // re-based after abort
  EXPECT_EQ(recovered.cycles, ok.cycles);
}

}  // namespace
