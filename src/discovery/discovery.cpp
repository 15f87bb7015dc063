#include "discovery/discovery.h"

#include <algorithm>
#include <utility>

#include "matchers/coma.h"

namespace valentine {

namespace {

LshCandidateIndex::Options LshIndexOptions(const DiscoveryOptions& options) {
  LshCandidateIndex::Options out;
  out.min_containment = options.min_containment;
  out.union_name_candidates = options.union_name_candidates;
  return out;
}

RepositoryOptions RepositoryOptionsFor(const DiscoveryOptions& options) {
  RepositoryOptions out;
  out.store = options.store;
  out.metrics = options.metrics;
  return out;
}

}  // namespace

const char* DiscoveryModeName(DiscoveryMode mode) {
  switch (mode) {
    case DiscoveryMode::kJoinable:
      return "joinable";
    case DiscoveryMode::kUnionable:
      return "unionable";
  }
  return "unknown";
}

DiscoveryEngine::DiscoveryEngine(DiscoveryOptions options)
    : options_(std::move(options)),
      repository_(RepositoryOptionsFor(options_)),
      candidate_index_(LshIndexOptions(options_)),
      reranker_(&matcher(), {options_.union_evidence_columns}) {}

Result<std::unique_ptr<DiscoveryEngine>> DiscoveryEngine::FromRepository(
    DiscoveryOptions options, TableRepository repository) {
  auto engine = std::make_unique<DiscoveryEngine>(std::move(options));
  engine->repository_ = std::move(repository);
  // Band every entry's already-built sketches into one segment: no
  // fingerprinting, no store IO, no value re-sketching.
  VALENTINE_RETURN_NOT_OK(engine->candidate_index_.AddAll(engine->repository_));
  return engine;
}

Result<std::unique_ptr<DiscoveryEngine>> DiscoveryEngine::FromRepository(
    DiscoveryOptions options, TableRepository repository,
    LshCandidateIndex index) {
  const LshCandidateIndex::Options expected = LshIndexOptions(options);
  const LshCandidateIndex::Options& got = index.options();
  if (got.min_containment != expected.min_containment ||
      got.union_name_candidates != expected.union_name_candidates) {
    return Status::InvalidArgument(
        "DiscoveryEngine: adopted LSH index options differ from the "
        "engine's");
  }
  auto engine = std::make_unique<DiscoveryEngine>(std::move(options));
  engine->repository_ = std::move(repository);
  engine->candidate_index_ = std::move(index);
  return engine;
}

const ColumnMatcher& DiscoveryEngine::matcher() const {
  if (options_.matcher) return *options_.matcher;
  static const ComaMatcher* kDefault = [] {
    ComaOptions opt;
    opt.strategy = ComaStrategy::kInstances;
    return new ComaMatcher(opt);
  }();
  return *kDefault;
}

Status DiscoveryEngine::AddTable(Table table) {
  auto entry = repository_.AddTable(std::move(table));
  VALENTINE_RETURN_NOT_OK(entry.status());
  return candidate_index_.Add(**entry);
}

Status DiscoveryEngine::RemoveTable(const std::string& name) {
  std::shared_ptr<const RegisteredTable> entry = repository_.Find(name);
  if (entry == nullptr) {
    return Status::NotFound("no table '" + name + "'");
  }
  VALENTINE_RETURN_NOT_OK(candidate_index_.Remove(*entry));
  return repository_.RemoveTable(name);
}

std::vector<DiscoveryResult> DiscoveryEngine::FindJoinable(
    const Table& query, size_t k) const {
  // An unbounded context cannot fail (built-in matchers are infallible
  // without a deadline/token), so ValueOrDie is safe here.
  return FindJoinable(query, k, MatchContext()).ValueOrDie();
}

std::vector<DiscoveryResult> DiscoveryEngine::FindUnionable(
    const Table& query, size_t k) const {
  return FindUnionable(query, k, MatchContext()).ValueOrDie();
}

Result<std::vector<DiscoveryResult>> DiscoveryEngine::FindJoinable(
    const Table& query, size_t k, const MatchContext& ctx,
    DiscoveryExplain* explain) const {
  return Find(candidate_index_, DiscoveryMode::kJoinable, query, k, ctx,
              explain);
}

Result<std::vector<DiscoveryResult>> DiscoveryEngine::FindUnionable(
    const Table& query, size_t k, const MatchContext& ctx,
    DiscoveryExplain* explain) const {
  return Find(candidate_index_, DiscoveryMode::kUnionable, query, k, ctx,
              explain);
}

Result<std::vector<DiscoveryResult>> DiscoveryEngine::Find(
    const CandidateIndex& index, DiscoveryMode mode, const Table& query,
    size_t k, const MatchContext& ctx, DiscoveryExplain* explain) const {
  const char* mode_name = DiscoveryModeName(mode);
  const std::string trace_id =
      ctx.trace_id.empty() ? "discovery/" + query.name() : ctx.trace_id;
  SpanScope query_span(options_.tracer, trace_id, "query", query.name(),
                       ctx.parent_span);
  query_span.Attr("mode", mode_name);
  query_span.Attr("k", std::to_string(k));
  if (options_.metrics != nullptr) {
    options_.metrics
        ->CounterFor("valentine_discovery_queries_total",
                     {{"mode", mode_name}})
        ->Increment();
  }
  // Fail fast: a request that arrives with its budget already spent (or
  // cancelled) must do zero candidate work.
  VALENTINE_RETURN_NOT_OK(ctx.Check(mode == DiscoveryMode::kJoinable
                                        ? "discovery/joinable/start"
                                        : "discovery/unionable/start"));

  // Stage 1 — Retrieve: nominate candidate table names.
  RetrievedCandidates retrieved;
  {
    SpanScope stage(options_.tracer, trace_id, "stage", "discovery.retrieve",
                    query_span.id());
    retrieved = index.Retrieve(query, mode, repository_);
    stage.Attr("index", retrieved.index);
    stage.Attr("candidates", std::to_string(retrieved.tables.size()));
    if (retrieved.fallback) stage.Attr("fallback", retrieved.fallback_reason);
  }
  if (options_.metrics != nullptr) {
    options_.metrics
        ->CounterFor("valentine_discovery_stage_candidates_total",
                     {{"mode", mode_name}, {"stage", "retrieve"}})
        ->Increment(retrieved.tables.size());
    if (retrieved.fallback) {
      options_.metrics
          ->CounterFor("valentine_discovery_fallback_total",
                       {{"mode", mode_name},
                        {"reason", retrieved.fallback_reason}})
          ->Increment();
    }
  }

  // Stage 2 — Enrich: join nominations to repository metadata.
  CandidateSet candidates;
  {
    SpanScope stage(options_.tracer, trace_id, "stage", "discovery.enrich",
                    query_span.id());
    candidates = enricher_.Enrich(retrieved, repository_);
    stage.Attr("candidates", std::to_string(candidates.candidates.size()));
  }
  if (options_.metrics != nullptr) {
    options_.metrics
        ->CounterFor("valentine_discovery_stage_candidates_total",
                     {{"mode", mode_name}, {"stage", "enrich"}})
        ->Increment(candidates.candidates.size());
  }

  // Stage 3 — Rerank: verify and score every candidate.
  Result<std::vector<DiscoveryResult>> reranked = [&] {
    SpanScope stage(options_.tracer, trace_id, "stage", "discovery.rerank",
                    query_span.id());
    RerankContext rctx;
    rctx.base = &ctx;
    rctx.trace_id = trace_id;
    rctx.parent_span = stage.id();
    rctx.clock = options_.clock;
    rctx.tracer = options_.tracer;
    return reranker_.Rerank(query, mode, candidates, rctx);
  }();
  if (!reranked.ok()) return reranked.status();
  std::vector<DiscoveryResult> results = std::move(reranked).ValueOrDie();

  const size_t scored_count = results.size();
  query_span.Attr("candidates_scored", std::to_string(scored_count));
  if (options_.metrics != nullptr) {
    options_.metrics
        ->CounterFor("valentine_discovery_candidates_scored_total",
                     {{"mode", mode_name}})
        ->Increment(scored_count);
    options_.metrics
        ->CounterFor("valentine_discovery_stage_candidates_total",
                     {{"mode", mode_name}, {"stage", "rerank"}})
        ->Increment(scored_count);
  }
  std::sort(results.begin(), results.end(),
            [](const DiscoveryResult& a, const DiscoveryResult& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.table_name < b.table_name;
            });
  if (results.size() > k) results.resize(k);
  if (options_.metrics != nullptr) {
    options_.metrics
        ->CounterFor("valentine_discovery_survivors_total",
                     {{"mode", mode_name}})
        ->Increment(results.size());
  }
  if (explain != nullptr) {
    explain->index = retrieved.index;
    explain->fallback = retrieved.fallback;
    explain->fallback_reason = retrieved.fallback_reason;
    explain->repository_tables = repository_.size();
    explain->retrieved = retrieved.tables.size();
    explain->enriched = candidates.candidates.size();
    explain->reranked = scored_count;
    explain->survivors = results.size();
  }
  return results;
}

}  // namespace valentine
