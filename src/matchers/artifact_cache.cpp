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
std::atomic<uint64_t> pair_builds{0};

void AppendHex(std::string* key, uint64_t v) {
  static const char* kDigits = "0123456789abcdef";
  for (int shift = 60; shift >= 0; shift -= 4) {
    key->push_back(kDigits[(v >> shift) & 0xF]);
  }
}

/// Appends `field` behind its length, so no field content can shift a
/// boundary between fields.
void AppendField(std::string* key, const std::string& field) {
  key->append(std::to_string(field.size()));
  key->push_back(':');
  key->append(field);
}

/// Runs `build` under cache-build > prepare spans parented on the
/// caller's span, handing it a context parented on the prepare span.
/// Which config's trace hosts a build follows the first-miss race, so
/// threaded traces place it nondeterministically (DESIGN.md §10).
template <typename Build>
auto TracedBuild(const MatchContext& context, const std::string& name,
                 const char* cache, const std::string& prepare_key,
                 const Build& build) {
  SpanScope build_span(context.tracer, context.trace_id, "cache-build", name,
                       context.parent_span);
  build_span.Attr("cache", cache);
  SpanScope prepare_span(context.tracer, context.trace_id, "prepare",
                         prepare_key, build_span.id());
  MatchContext inner = context;
  inner.parent_span = prepare_span.id() != 0 ? prepare_span.id()
                                             : context.parent_span;
  auto built = build(inner);
  prepare_span.Attr("code", StatusCodeName(built.ok()
                                               ? StatusCode::kOk
                                               : built.status().code()));
  return built;
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

uint64_t PairArtifactBuilds() {
  return pair_builds.load(std::memory_order_relaxed);
}

PreparedTablePtr ArtifactCache::GetOrPrepare(const ColumnMatcher& matcher,
                                             const Table& table,
                                             uint64_t fingerprint,
                                             const TableProfile* profile,
                                             const MatchContext& context) {
  const std::string family = matcher.Name();
  const std::string prepare_key = matcher.PrepareKey();
  std::string key;
  AppendHex(&key, fingerprint);
  AppendField(&key, table.name());
  AppendField(&key, family);
  AppendField(&key, prepare_key);

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
  // are interchangeable by the Prepare determinism contract).
  Result<PreparedTablePtr> built = TracedBuild(
      context, family + "/" + table.name(), "artifact", prepare_key,
      [&](const MatchContext& inner) {
        return matcher.Prepare(table, profile, inner);
      });
  MutexLock lock(&mu_);
  ++stats_[family].builds;
  if (!built.ok()) return nullptr;
  // First insert wins; a racing loser serves the winner.
  return map_.emplace(std::move(key), *built).first->second;
}

PreparedPairPtr ArtifactCache::GetOrPreparePair(const ColumnMatcher& matcher,
                                                const PreparedTable& source,
                                                uint64_t source_fingerprint,
                                                const PreparedTable& target,
                                                uint64_t target_fingerprint,
                                                const MatchContext& context) {
  const std::string family = matcher.Name();
  const std::string prepare_key = matcher.PrepareKey();
  std::string key;
  AppendHex(&key, source_fingerprint);
  AppendHex(&key, target_fingerprint);
  AppendField(&key, source.table().name());
  AppendField(&key, target.table().name());
  AppendField(&key, family);
  AppendField(&key, prepare_key);

  {
    MutexLock lock(&mu_);
    auto it = pairs_.find(key);
    if (it != pairs_.end()) return it->second;
  }

  // Built outside the lock, like table artifacts.
  Result<PreparedPairPtr> built = TracedBuild(
      context,
      family + "/" + source.table().name() + "|" + target.table().name(),
      "pair", prepare_key, [&](const MatchContext& inner) {
        return matcher.PreparePair(source, target, inner);
      });
  if (!built.ok()) return nullptr;
  if (*built != nullptr) pair_builds.fetch_add(1, std::memory_order_relaxed);
  MutexLock lock(&mu_);
  return pairs_.emplace(std::move(key), *built).first->second;
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
