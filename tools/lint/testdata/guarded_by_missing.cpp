// Deliberately-violating fixture for the guarded-by-coverage rule —
// the shared-state shape the PR 1 COMA/SemProp episode taught us to
// distrust: a stats/export cache whose members sit next to a mutex
// with nothing declaring which of them the mutex guards. On a Clang
// build -Wthread-safety would catch an unlocked read of `scores_` on
// the export path; this heuristic makes GCC builds refuse the missing
// annotation itself. Expected findings when linted as src/<...>:
// 2 — `scores_` and `hits_`. `export_order_` is annotated, `spec_` is
// lint:allow'd (immutable), `pending_` is atomic, `kMaxEntries` is
// static constexpr; the multi-line `by_family_` declaration carries
// its GUARDED_BY on the continuation line and must not be flagged.
// Outside src/ the rule does not apply.
#include "core/mutex.h"

#include <atomic>
#include <map>
#include <string>
#include <vector>

namespace valentine {

struct ExportSpec {
  size_t cap = 16;
};

class StatsExportCache {
 public:
  explicit StatsExportCache(ExportSpec spec) : spec_(spec) {}

  void Record(const std::string& name, double score) {
    MutexLock lock(&mu_);
    scores_[name] = score;
    export_order_.push_back(name);
    ++hits_;
  }

 private:
  static constexpr size_t kMaxEntries = 1024;
  const ExportSpec spec_;  // lint:allow(guarded-by-coverage) immutable
  mutable Mutex mu_{LockRank::kArtifactCache, "StatsExportCache"};
  std::map<std::string, double> scores_;  // finding 1: no GUARDED_BY
  std::vector<std::string> export_order_ GUARDED_BY(mu_);
  std::map<std::string, std::vector<double>> by_family_
      GUARDED_BY(mu_);
  size_t hits_ = 0;  // finding 2: no GUARDED_BY
  std::atomic<uint64_t> lockfree_reads_{0};
};

}  // namespace valentine
