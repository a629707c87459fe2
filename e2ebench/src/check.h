// Output references computed apart from the library, and the per-operation
// checker every workload runs. The checker also enforces the properties the
// SkipGate method must have on every run (paper §3): the garbled-gate ledger
// adds up, half-gates tables are 32 bytes each, the two parties folded the
// same table stream, and the garbled count depends on public data only.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "crypto/block.h"

namespace e2e {

/// popcount(a XOR b) over equal-length word vectors.
std::uint32_t ref_hamming(const std::vector<std::uint32_t>& a,
                          const std::vector<std::uint32_t>& b);
/// Row-major n x n product A x B mod 2^32.
std::vector<std::uint32_t> ref_matmult(const std::vector<std::uint32_t>& a,
                                       const std::vector<std::uint32_t>& b, std::size_t n);
/// FIPS-197 AES-128 encryption of one block (byte order as in the standard).
std::array<std::uint8_t, 16> ref_aes128(const std::array<std::uint8_t, 16>& key,
                                        const std::array<std::uint8_t, 16>& pt);
/// True when ref_aes128 reproduces the FIPS-197 Appendix C.1 vector.
bool ref_aes128_passes_fips197();
/// 16 bytes packed little-endian into 4 words (byte i -> word i/4, bits 8*(i%4)).
std::vector<std::uint32_t> bytes_to_words(const std::array<std::uint8_t, 16>& b);

struct Expected {
  std::vector<std::uint32_t> outputs;
  std::uint64_t cycles = 0;
  std::uint64_t conventional_non_xor = 0;  ///< non-free gates x cycles
};

struct Observed {
  std::vector<std::uint32_t> outputs;
  std::uint64_t cycles = 0;
  std::uint64_t garbled_non_xor = 0;
  std::uint64_t skipped_non_xor = 0;
  std::uint64_t non_xor_slots = 0;
  std::uint64_t garbled_table_bytes = 0;
  /// Table digests of the two parties, where the workload can see both.
  std::optional<arm2gc::crypto::Block> garbler_digest;
  std::optional<arm2gc::crypto::Block> evaluator_digest;
};

/// Cross-operation state of one program: SkipGate's cost is a function of
/// public data only, so every operation on fresh private inputs must garble
/// the same number of tables. Safe to share between client threads.
class ProgramLedger {
 public:
  /// Records the first count; returns false when `n` differs from it.
  bool same_garbled_count(std::uint64_t n);

 private:
  static constexpr std::uint64_t kUnset = ~std::uint64_t{0};
  std::atomic<std::uint64_t> first_{kUnset};
};

/// Empty when the operation is correct, else the first violated property.
std::string check_op(const Expected& want, const Observed& got, ProgramLedger& ledger);

/// Feeds every workload's checker a correct result and three wrong ones
/// (a flipped output word, differing party digests, a garbled count that
/// breaks the slot identity) plus a count that drifts between operations.
/// Returns the number of cases the checker judged wrongly; prints each case.
int checker_self_test();

}  // namespace e2e
