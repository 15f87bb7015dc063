// Negative compile-fixture for the Clang thread-safety analysis.
//
// This file deliberately reproduces the bug class the annotations exist
// to catch — the PR 1 COMA/SemProp shape: a cache/export object whose
// members are written under the mutex on the hot path but *read without
// it* on a stats/export path that "only reads, so it looked safe".
// Under `clang++ -Wthread-safety -Werror=thread-safety` every access
// marked BAD below is a hard error; the ctest registration
// (thread_safety_negative_fixture, WILL_FAIL) asserts the compile
// fails, so the safety net itself is regression-tested.
//
// NOT named *_test.cpp on purpose: it must never be globbed into the
// real test binaries — it would be a data race if it linked.
#include <cstddef>
#include <map>
#include <string>

#include "core/mutex.h"
#include "core/thread_annotations.h"

namespace valentine {

class LeakyExportCache {
 public:
  void Record(const std::string& name, double score) EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    scores_[name] = score;
    ++writes_;
  }

  // BAD: reads guarded members with no lock held — the exact "export
  // path reads concurrently with matcher writes" race.
  size_t ExportSize() const { return scores_.size(); }

  // BAD: takes the lock, releases it via the guard, then keeps using
  // the guarded member outside the critical section.
  double First() const {
    double first = 0.0;
    {
      MutexLock lock(&mu_);
      if (!scores_.empty()) first = scores_.begin()->second;
    }
    return first + static_cast<double>(writes_);
  }

  // BAD: claims EXCLUDES(mu_) then re-enters through a helper that
  // REQUIRES it, without acquiring — caller-side analysis error.
  void Reset() EXCLUDES(mu_) { ClearLocked(); }

 private:
  void ClearLocked() REQUIRES(mu_) {
    scores_.clear();
    writes_ = 0;
  }

  mutable Mutex mu_{LockRank::kArtifactCache, "LeakyExportCache"};
  std::map<std::string, double> scores_ GUARDED_BY(mu_);
  size_t writes_ GUARDED_BY(mu_) = 0;
};

// Keep the class odr-used so no "unused" warning families fire on
// toolchains where the thread-safety errors do not (GCC).
void TouchLeakyExportCache() {
  LeakyExportCache cache;
  cache.Record("a", 1.0);
  (void)cache.ExportSize();
  (void)cache.First();
  cache.Reset();
}

}  // namespace valentine
