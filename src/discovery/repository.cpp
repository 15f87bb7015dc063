#include "discovery/repository.h"

#include <atomic>
#include <set>
#include <utility>

#include "matchers/artifact_cache.h"
#include "text/tokenizer.h"

namespace valentine {

namespace {

/// Source of RegisteredTable::registration, shared by every repository
/// in the process so that no two entries ever carry the same number.
std::atomic<uint64_t> next_registration{1};

/// A stored artifact substitutes for a fresh build only when it
/// describes this exact table shape at this signature width (content
/// fingerprints collide across renames: the fingerprint hashes the
/// table name too, so a mismatch here means a foreign or stale file).
bool ArtifactServesTable(const TableDiscoveryArtifact& artifact,
                         const Table& table, size_t signature_size) {
  if (artifact.signature_size != signature_size) return false;
  if (artifact.columns.size() != table.num_columns()) return false;
  for (size_t i = 0; i < table.num_columns(); ++i) {
    if (artifact.columns[i].name != table.column(i).name()) return false;
  }
  return true;
}

}  // namespace

PreparedTablePtr PreparedSlot::Get(const std::string& family,
                                   const std::string& prepare_key) const {
  MutexLock lock(&mu_);
  if (artifact_ == nullptr || artifact_->family() != family ||
      artifact_->prepare_key() != prepare_key) {
    return nullptr;
  }
  return artifact_;
}

PreparedTablePtr PreparedSlot::Install(PreparedTablePtr built) {
  MutexLock lock(&mu_);
  if (artifact_ == nullptr) artifact_ = built;
  // A racing build of the same artifact lost: serve the winner's.
  if (artifact_->family() == built->family() &&
      artifact_->prepare_key() == built->prepare_key()) {
    return artifact_;
  }
  return built;
}

TableRepository::TableRepository(RepositoryOptions options)
    : options_(options) {}

Status TableRepository::Validate(const Table& table) const {
  if (table.num_columns() == 0) {
    return Status::InvalidArgument("table '" + table.name() +
                                   "' has no columns");
  }
  if (index_by_name_.count(table.name()) != 0) {
    return Status::InvalidArgument("duplicate table name '" + table.name() +
                                   "'");
  }
  std::set<std::string> seen_columns;
  for (const Column& c : table.columns()) {
    if (!seen_columns.insert(c.name()).second) {
      return Status::InvalidArgument("duplicate column name '" + c.name() +
                                     "' in table '" + table.name() + "'");
    }
  }
  return Status::OK();
}

Result<std::shared_ptr<const RegisteredTable>> TableRepository::AddTable(
    Table table) {
  // Validate-then-commit: nothing below can fail on a valid table, so a
  // rejected registration leaves no partial state behind.
  VALENTINE_RETURN_NOT_OK(Validate(table));

  const size_t signature_size = options_.signature_size;
  std::shared_ptr<const TableDiscoveryArtifact> artifact;
  if (options_.store != nullptr) {
    const uint64_t fingerprint = TableContentFingerprint(table);
    auto loaded = options_.store->Get(fingerprint);
    if (loaded.ok() &&
        ArtifactServesTable(**loaded, table, signature_size)) {
      artifact = *loaded;
      if (options_.metrics != nullptr) {
        options_.metrics
            ->CounterFor("valentine_discovery_store_total",
                         {{"event", "hit"}})
            ->Increment();
      }
    } else {
      artifact = std::make_shared<const TableDiscoveryArtifact>(
          BuildDiscoveryArtifact(table, signature_size, fingerprint));
      Status persisted = options_.store->Put(artifact);
      // A failed persist degrades to in-memory registration: queries
      // stay correct, only the next cold start pays the rebuild.
      if (options_.metrics != nullptr) {
        options_.metrics
            ->CounterFor("valentine_discovery_store_total",
                         {{"event", persisted.ok() ? "build" : "put-error"}})
            ->Increment();
      }
    }
  } else {
    // No store: skipping the content fingerprint (recorded as 0) keeps
    // in-memory registration as cheap as it was before the store existed.
    artifact = std::make_shared<const TableDiscoveryArtifact>(
        BuildDiscoveryArtifact(table, signature_size, /*fingerprint=*/0));
  }

  auto entry = std::make_shared<RegisteredTable>();
  entry->registration =
      next_registration.fetch_add(1, std::memory_order_relaxed);
  entry->artifact = std::move(artifact);
  entry->name_tokens.reserve(table.num_columns());
  for (const Column& c : table.columns()) {
    entry->name_tokens.push_back(TokenizeIdentifier(c.name()));
  }
  entry->table = std::move(table);

  index_by_name_[entry->table.name()] = entries_.size();
  entries_.push_back(entry);
  return std::shared_ptr<const RegisteredTable>(std::move(entry));
}

Status TableRepository::RemoveTable(const std::string& name) {
  auto it = index_by_name_.find(name);
  if (it == index_by_name_.end()) {
    return Status::NotFound("no table '" + name + "'");
  }
  const size_t index = it->second;
  entries_.erase(entries_.begin() + static_cast<ptrdiff_t>(index));
  index_by_name_.erase(it);
  // Erasing shifts every subsequent entry's position.
  for (auto& [other, i] : index_by_name_) {
    if (i > index) --i;
  }
  return Status::OK();
}

std::optional<size_t> TableRepository::PositionOf(
    const std::string& name) const {
  auto it = index_by_name_.find(name);
  if (it == index_by_name_.end()) return std::nullopt;
  return it->second;
}

std::shared_ptr<const RegisteredTable> TableRepository::Find(
    const std::string& name) const {
  auto it = index_by_name_.find(name);
  if (it == index_by_name_.end()) return nullptr;
  return entries_[it->second];
}

}  // namespace valentine
