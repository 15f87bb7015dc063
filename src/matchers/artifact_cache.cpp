#include "matchers/artifact_cache.h"

#include <atomic>
#include <utility>

#include "obs/trace.h"

namespace valentine {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

void FnvMix(uint64_t* h, const char* data, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    *h ^= static_cast<unsigned char>(data[i]);
    *h *= kFnvPrime;
  }
}

void FnvMixString(uint64_t* h, const std::string& s) {
  // Length-prefix every string so ("ab","c") and ("a","bc") differ.
  uint64_t n = s.size();
  FnvMix(h, reinterpret_cast<const char*>(&n), sizeof(n));
  FnvMix(h, s.data(), s.size());
}

std::atomic<uint64_t> fingerprint_calls{0};

std::string HexU64(uint64_t v) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kDigits[v & 0xF];
    v >>= 4;
  }
  return out;
}

}  // namespace

uint64_t TableContentFingerprint(const Table& table) {
  fingerprint_calls.fetch_add(1, std::memory_order_relaxed);
  uint64_t h = kFnvOffset;
  FnvMixString(&h, table.name());
  uint64_t rows = table.num_rows();
  FnvMix(&h, reinterpret_cast<const char*>(&rows), sizeof(rows));
  for (const Column& column : table.columns()) {
    FnvMixString(&h, column.name());
    FnvMixString(&h, DataTypeName(column.type()));
    for (const Value& v : column.values()) {
      char null_tag = v.is_null() ? 1 : 0;
      FnvMix(&h, &null_tag, 1);
      if (!v.is_null()) FnvMixString(&h, v.AsString());
    }
  }
  return h;
}

uint64_t TableContentFingerprintCalls() {
  return fingerprint_calls.load(std::memory_order_relaxed);
}

PreparedTablePtr ArtifactCache::GetOrPrepare(const ColumnMatcher& matcher,
                                             const Table& table,
                                             uint64_t fingerprint,
                                             const TableProfile* profile,
                                             const MatchContext& context) {
  const std::string family = matcher.Name();
  std::string key = HexU64(fingerprint);
  key.push_back('\x1f');
  key += table.name();
  key.push_back('\x1f');
  key += family;
  key.push_back('\x1f');
  key += matcher.PrepareKey();

  {
    MutexLock lock(&mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      ++stats_[family].hits;
      return it->second;
    }
    ++stats_[family].misses;
  }

  // Build outside the lock: Prepare can be arbitrarily expensive, and
  // two concurrent builders are still correct (artifacts for equal keys
  // are interchangeable by the Prepare determinism contract). The build
  // is traced as cache-build > prepare under the caller's span; which
  // config's trace hosts the build follows the first-miss race, so
  // threaded traces place it nondeterministically (DESIGN.md §10).
  SpanScope build_span(context.tracer, context.trace_id, "cache-build",
                       family + "/" + table.name(), context.parent_span);
  build_span.Attr("cache", "artifact");
  SpanScope prepare_span(context.tracer, context.trace_id, "prepare",
                         matcher.PrepareKey(), build_span.id());
  MatchContext inner = context;
  inner.parent_span = prepare_span.id() != 0 ? prepare_span.id()
                                             : context.parent_span;
  Result<PreparedTablePtr> built = matcher.Prepare(table, profile, inner);
  prepare_span.Attr("code", StatusCodeName(built.ok()
                                               ? StatusCode::kOk
                                               : built.status().code()));
  prepare_span.End();
  build_span.End();
  {
    MutexLock lock(&mu_);
    ++stats_[family].builds;
    if (!built.ok()) return nullptr;
    auto [it, inserted] = map_.emplace(std::move(key), *built);
    (void)inserted;  // first insert wins; a racing loser serves the winner
    return it->second;
  }
}

std::map<std::string, ArtifactCache::FamilyStats> ArtifactCache::StatsSnapshot()
    const {
  MutexLock lock(&mu_);
  return stats_;
}

size_t ArtifactCache::size() const {
  MutexLock lock(&mu_);
  return map_.size();
}

}  // namespace valentine
