#ifndef VALENTINE_PERFBENCH_LAKE_H_
#define VALENTINE_PERFBENCH_LAKE_H_

// The seeded table universe the serve workloads draw from.
//
// The universe is a stable, position-indexed set of tables: family f
// owns kSlotsPerFamily slots, and slot s of family f is always the same
// table for a given seed. Slots [0, kShardsPerFamily) are the lake that
// gets registered; the next kQueryVariants slots are query shards (same
// family core, unseen tail — never registered); the rest are fresh
// shards the churn workload registers as brand-new content. Every shard
// of a family carries the family's core value pool and family-unique
// column-name tokens (the bench_repository family shape), so the
// family's registered shards are the ground truth for both joinable
// and unionable queries.
//
// universe_fingerprint() digests every table of the universe; it is
// printed with every result so figures from different lakes are never
// compared.

#include <cstdint>
#include <string>

#include "core/table.h"

namespace valentine {
namespace perfbench {

inline constexpr size_t kShardsPerFamily = 10;
inline constexpr size_t kQueryVariants = 4;
inline constexpr size_t kSlotsPerFamily = 64;

class LakeUniverse {
 public:
  LakeUniverse(uint64_t seed, size_t families);

  size_t families() const { return families_; }
  size_t universe_size() const { return families_ * kSlotsPerFamily; }

  /// Table at universe position `idx` (= family * kSlotsPerFamily +
  /// slot). Pure function of (seed, idx).
  Table TableAt(size_t idx) const;
  std::string NameAt(size_t idx) const;

  static size_t Index(size_t family, size_t slot) {
    return family * kSlotsPerFamily + slot;
  }
  /// First slot of the fresh (never initially registered) range.
  static constexpr size_t kFirstFreshSlot = kShardsPerFamily + kQueryVariants;

  /// Digest of every table in the universe (names, column names, cell
  /// values), computed once at construction.
  uint64_t universe_fingerprint() const { return fingerprint_; }

 private:
  std::string FamilyWord(size_t family) const;

  uint64_t seed_;
  size_t families_;
  uint64_t fingerprint_ = 0;
};

/// The table's JSON wire form (serve::TableFromJson's input).
std::string TableToJson(const Table& table);

/// splitmix64 finalizer: the universe's only source of randomness.
uint64_t Mix(uint64_t x);

/// Checks the fingerprint contract: the same seed reproduces the
/// fingerprint and a different seed changes it. Empty when it holds,
/// else the reason.
std::string UniverseSelfTest(uint64_t seed, size_t families);

}  // namespace perfbench
}  // namespace valentine

#endif  // VALENTINE_PERFBENCH_LAKE_H_
