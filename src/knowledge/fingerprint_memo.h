#ifndef VALENTINE_KNOWLEDGE_FINGERPRINT_MEMO_H_
#define VALENTINE_KNOWLEDGE_FINGERPRINT_MEMO_H_

/// \file fingerprint_memo.h
/// Memo for a knowledge base's content fingerprint. Matcher PrepareKeys
/// embed the fingerprint and run on every Score and every artifact-cache
/// lookup, so rehashing the whole knowledge base each time is a visible
/// cost (about 12 µs for Thesaurus::Default() on a 4-vCPU x86-64 VM).
/// The owner computes the value on first use and clears it in every
/// mutator.
///
/// Safe for concurrent const callers: racing first readers compute the
/// same value and publish it through atomics. Mutators follow the usual
/// container contract (no const call may run concurrently with one).

#include <atomic>
#include <cstdint>

namespace valentine {

class FingerprintMemo {
 public:
  FingerprintMemo() = default;
  /// A copy starts empty and recomputes on first use; copying the value
  /// would race a concurrent first reader of the source for no gain.
  FingerprintMemo(const FingerprintMemo&) {}
  FingerprintMemo& operator=(const FingerprintMemo&) {
    Invalidate();
    return *this;
  }

  /// The memoized value, computing it with `compute()` when empty.
  template <typename Compute>
  uint64_t Get(Compute compute) const {
    if (valid_.load()) return value_.load();
    const uint64_t value = compute();
    value_.store(value);
    valid_.store(true);  // after the value, so a reader never sees it unset
    return value;
  }

  /// Drops the memo; every mutator of the owner calls this.
  void Invalidate() { valid_.store(false); }

 private:
  mutable std::atomic<uint64_t> value_{0};
  mutable std::atomic<bool> valid_{false};
};

}  // namespace valentine

#endif  // VALENTINE_KNOWLEDGE_FINGERPRINT_MEMO_H_
