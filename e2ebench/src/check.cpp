#include "check.h"

#include <bit>
#include <cstdio>

namespace e2e {

std::uint32_t ref_hamming(const std::vector<std::uint32_t>& a,
                          const std::vector<std::uint32_t>& b) {
  std::uint32_t d = 0;
  for (std::size_t i = 0; i < a.size(); ++i) d += static_cast<std::uint32_t>(std::popcount(a[i] ^ b[i]));
  return d;
}

std::vector<std::uint32_t> ref_matmult(const std::vector<std::uint32_t>& a,
                                       const std::vector<std::uint32_t>& b, std::size_t n) {
  std::vector<std::uint32_t> c(n * n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      std::uint32_t acc = 0;
      for (std::size_t k = 0; k < n; ++k) acc += a[i * n + k] * b[k * n + j];
      c[i * n + j] = acc;
    }
  }
  return c;
}

namespace {

std::uint8_t gf_mul(std::uint8_t a, std::uint8_t b) {
  std::uint8_t p = 0;
  for (int i = 0; i < 8; ++i) {
    if ((b & 1u) != 0) p ^= a;
    const bool hi = (a & 0x80u) != 0;
    a = static_cast<std::uint8_t>(a << 1);
    if (hi) a ^= 0x1b;
    b >>= 1;
  }
  return p;
}

/// S-box from its definition (multiplicative inverse, then the affine map),
/// not from a table, so it shares nothing with the circuit's tower-field
/// construction.
std::array<std::uint8_t, 256> make_sbox() {
  std::array<std::uint8_t, 256> s{};
  for (int x = 0; x < 256; ++x) {
    std::uint8_t inv = 0;
    for (int y = 1; y < 256 && x != 0; ++y) {
      if (gf_mul(static_cast<std::uint8_t>(x), static_cast<std::uint8_t>(y)) == 1) {
        inv = static_cast<std::uint8_t>(y);
        break;
      }
    }
    std::uint8_t r = 0x63;
    for (int i = 0; i < 5; ++i) r ^= static_cast<std::uint8_t>((inv << i) | (inv >> (8 - i)));
    s[static_cast<std::size_t>(x)] = r;
  }
  return s;
}

const std::array<std::uint8_t, 256>& sbox() {
  static const std::array<std::uint8_t, 256> s = make_sbox();
  return s;
}

}  // namespace

std::array<std::uint8_t, 16> ref_aes128(const std::array<std::uint8_t, 16>& key,
                                        const std::array<std::uint8_t, 16>& pt) {
  const auto& S = sbox();
  std::array<std::uint8_t, 176> rk{};
  for (int i = 0; i < 16; ++i) rk[static_cast<std::size_t>(i)] = key[static_cast<std::size_t>(i)];
  std::uint8_t rcon = 1;
  for (std::size_t i = 16; i < 176; i += 4) {
    std::array<std::uint8_t, 4> t = {rk[i - 4], rk[i - 3], rk[i - 2], rk[i - 1]};
    if (i % 16 == 0) {
      t = {static_cast<std::uint8_t>(S[t[1]] ^ rcon), S[t[2]], S[t[3]], S[t[0]]};
      rcon = gf_mul(rcon, 2);
    }
    for (std::size_t j = 0; j < 4; ++j) rk[i + j] = rk[i + j - 16] ^ t[j];
  }
  std::array<std::uint8_t, 16> s{};
  for (std::size_t i = 0; i < 16; ++i) s[i] = pt[i] ^ rk[i];
  for (int round = 1; round <= 10; ++round) {
    std::array<std::uint8_t, 16> t{};
    // SubBytes + ShiftRows (state is column-major: byte r + 4c).
    for (std::size_t r = 0; r < 4; ++r) {
      for (std::size_t c = 0; c < 4; ++c) t[r + 4 * c] = S[s[r + 4 * ((c + r) % 4)]];
    }
    if (round != 10) {
      for (std::size_t c = 0; c < 4; ++c) {
        const std::uint8_t a0 = t[4 * c], a1 = t[4 * c + 1], a2 = t[4 * c + 2], a3 = t[4 * c + 3];
        t[4 * c] = gf_mul(a0, 2) ^ gf_mul(a1, 3) ^ a2 ^ a3;
        t[4 * c + 1] = a0 ^ gf_mul(a1, 2) ^ gf_mul(a2, 3) ^ a3;
        t[4 * c + 2] = a0 ^ a1 ^ gf_mul(a2, 2) ^ gf_mul(a3, 3);
        t[4 * c + 3] = gf_mul(a0, 3) ^ a1 ^ a2 ^ gf_mul(a3, 2);
      }
    }
    for (std::size_t i = 0; i < 16; ++i) s[i] = t[i] ^ rk[16 * static_cast<std::size_t>(round) + i];
  }
  return s;
}

bool ref_aes128_passes_fips197() {
  std::array<std::uint8_t, 16> key{}, pt{};
  for (std::size_t i = 0; i < 16; ++i) {
    key[i] = static_cast<std::uint8_t>(i);
    pt[i] = static_cast<std::uint8_t>(i * 0x11);
  }
  const std::array<std::uint8_t, 16> want = {0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30,
                                             0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a};
  return ref_aes128(key, pt) == want;
}

std::vector<std::uint32_t> bytes_to_words(const std::array<std::uint8_t, 16>& b) {
  std::vector<std::uint32_t> w(4, 0);
  for (std::size_t i = 0; i < 16; ++i) w[i / 4] |= static_cast<std::uint32_t>(b[i]) << (8 * (i % 4));
  return w;
}

bool ProgramLedger::same_garbled_count(std::uint64_t n) {
  std::uint64_t expected = kUnset;
  if (first_.compare_exchange_strong(expected, n, std::memory_order_acq_rel)) return true;
  return expected == n;
}

std::string check_op(const Expected& want, const Observed& got, ProgramLedger& ledger) {
  if (got.outputs != want.outputs) return "outputs differ from the reference";
  if (got.cycles != want.cycles) return "cycle count differs from the reference";
  if (got.garbled_non_xor + got.skipped_non_xor != got.non_xor_slots) {
    return "garbled + skipped != non-XOR slots";
  }
  if (got.non_xor_slots != want.conventional_non_xor) {
    return "non-XOR slots != conventional non-XOR count";
  }
  if (got.garbled_table_bytes != 32 * got.garbled_non_xor) {
    return "garbled table bytes != 32 x garbled non-XOR";
  }
  if (got.garbler_digest && got.evaluator_digest && !(*got.garbler_digest == *got.evaluator_digest)) {
    return "garbler and evaluator table digests differ";
  }
  if (!ledger.same_garbled_count(got.garbled_non_xor)) {
    return "garbled non-XOR count varies with private inputs";
  }
  return {};
}

int checker_self_test() {
  struct Case {
    const char* checker;
    Expected want;
  };
  // One case per workload checker, each with its own reference.
  const std::vector<std::uint32_t> ha = {0xDEADBEEF, 0x01234567, 0x89ABCDEF, 0x0F0F0F0F, 0x55AA55AA};
  const std::vector<std::uint32_t> hb = {0xCAFEBABE, 0x76543210, 0xFEDCBA98, 0xF0F0F0F0, 0xAA55AA55};
  std::vector<std::uint32_t> ma(9), mb(9);
  for (std::uint32_t i = 0; i < 9; ++i) {
    ma[i] = 0x9E3779B9u * (i + 1);
    mb[i] = 0x7F4A7C15u * (i + 3);
  }
  std::array<std::uint8_t, 16> key{}, pt{};
  for (std::size_t i = 0; i < 16; ++i) {
    key[i] = static_cast<std::uint8_t>(3 * i + 1);
    pt[i] = static_cast<std::uint8_t>(7 * i + 5);
  }
  const std::vector<Case> cases = {
      {"party_cold_hamming160", {{ref_hamming(ha, hb)}, 97, 97 * 1000}},
      {"session_warm_matmult3", {ref_matmult(ma, mb, 3), 316, 316 * 1000}},
      {"served_mix/hamming160", {{ref_hamming(ha, hb)}, 97, 97 * 1000}},
      {"served_mix/aes128", {bytes_to_words(ref_aes128(key, pt)), 10, 10 * 600}},
  };

  int wrong = 0;
  auto judge = [&](const char* checker, const char* what, bool expect_ok, const Expected& w,
                   const Observed& o, ProgramLedger& ledger) {
    const std::string err = check_op(w, o, ledger);
    const bool ok = err.empty();
    const bool right = ok == expect_ok;
    if (!right) ++wrong;
    std::printf("%-22s %-34s -> %-8s %s%s\n", checker, what, ok ? "accepted" : "failed",
                right ? "(as expected)" : "(WRONG)", err.empty() ? "" : (" : " + err).c_str());
  };
  const arm2gc::crypto::Block digest{0x1234, 0x5678};
  for (const Case& c : cases) {
    Observed good;
    good.outputs = c.want.outputs;
    good.cycles = c.want.cycles;
    good.non_xor_slots = c.want.conventional_non_xor;
    good.garbled_non_xor = c.want.conventional_non_xor / 10;
    good.skipped_non_xor = good.non_xor_slots - good.garbled_non_xor;
    good.garbled_table_bytes = 32 * good.garbled_non_xor;
    good.garbler_digest = digest;
    good.evaluator_digest = digest;
    {
      ProgramLedger ledger;
      judge(c.checker, "correct result", true, c.want, good, ledger);
      judge(c.checker, "correct result, second operation", true, c.want, good, ledger);
    }
    {
      ProgramLedger ledger;
      Observed o = good;
      o.outputs[o.outputs.size() / 2] ^= 1u << 7;
      judge(c.checker, "one flipped output word", false, c.want, o, ledger);
    }
    {
      ProgramLedger ledger;
      Observed o = good;
      o.evaluator_digest = digest ^ arm2gc::crypto::Block{1, 0};
      judge(c.checker, "garbler/evaluator digests differ", false, c.want, o, ledger);
    }
    {
      ProgramLedger ledger;
      Observed o = good;
      o.garbled_non_xor += 1;  // tables and bytes still agree; the slot sum does not
      o.garbled_table_bytes = 32 * o.garbled_non_xor;
      judge(c.checker, "garbled_non_xor breaks slot identity", false, c.want, o, ledger);
    }
    {
      ProgramLedger ledger;
      (void)check_op(c.want, good, ledger);
      Observed o = good;
      o.garbled_non_xor -= 1;  // a consistent ledger, but a different count
      o.skipped_non_xor += 1;
      o.garbled_table_bytes = 32 * o.garbled_non_xor;
      judge(c.checker, "garbled count drifts across ops", false, c.want, o, ledger);
    }
  }
  const bool fips = ref_aes128_passes_fips197();
  if (!fips) ++wrong;
  std::printf("%-22s %-34s -> %s\n", "aes128 reference", "FIPS-197 C.1 vector",
              fips ? "matches" : "MISMATCH");
  return wrong;
}

}  // namespace e2e
