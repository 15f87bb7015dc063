#ifndef VALENTINE_HARNESS_JOURNAL_H_
#define VALENTINE_HARNESS_JOURNAL_H_

/// \file journal.h
/// Append-only JSONL outcome journal for crash-resumable campaigns.
/// Every finished experiment (one configuration on one pair, including
/// terminal failures after the retry budget) is appended as one JSON
/// line and flushed, so a campaign killed mid-flight loses at most the
/// experiments that were in progress. On restart the journal is loaded
/// into a JournalIndex and completed (family, pair, config) triples are
/// replayed from it instead of re-executed; the resumed campaign's
/// report is byte-identical (modulo wall-clock runtime fields) to an
/// uninterrupted run.

#include <fstream>
#include <optional>
#include <string>
#include <unordered_map>

#include "core/mutex.h"
#include "core/status.h"
#include "core/thread_annotations.h"

namespace valentine {

/// One journaled experiment outcome. `code` is kOk for successful runs;
/// terminal failures record the final StatusCode and message after the
/// retry budget was exhausted (the quarantine record: resume never
/// re-attempts such a triple).
struct JournalEntry {
  std::string family;
  std::string pair_id;
  std::string config;
  StatusCode code = StatusCode::kOk;
  std::string error;
  double recall_at_gt = 0.0;
  double map = 0.0;
  double runtime_ms = 0.0;
  size_t attempts = 1;
};

/// The unique key of an experiment within a campaign.
std::string JournalKey(const std::string& family, const std::string& pair_id,
                       const std::string& config);

/// Serializes one entry as a single JSON line (no trailing newline).
/// Doubles go through serve::JsonNumberToString (%.17g) so values
/// round-trip exactly — a resumed campaign must reproduce recalls
/// bit-for-bit or tie-breaks could flip.
std::string SerializeJournalEntry(const JournalEntry& entry);

/// Parses one JSONL line with serve::ParseJson; nullopt when the line
/// is malformed (e.g. the torn final line of a killed process), lacks a
/// member or holds an attempts count no run could have written.
std::optional<JournalEntry> ParseJournalEntry(const std::string& line);

/// \brief Thread-safe append-only JSONL writer. Each Append writes one
/// line and flushes; errors latch into status() instead of throwing so
/// a full disk degrades the journal, never the campaign. Opening an
/// existing journal first cuts a torn final line (one with no newline,
/// left by a killed writer), so appended entries start lines of their
/// own and the journal stays a sequence of whole lines.
class OutcomeJournal {
 public:
  explicit OutcomeJournal(const std::string& path);
  OutcomeJournal(const OutcomeJournal&) = delete;
  OutcomeJournal& operator=(const OutcomeJournal&) = delete;

  void Append(const JournalEntry& entry) EXCLUDES(mutex_);

  /// First error encountered (open or write); OK while healthy.
  Status status() const EXCLUDES(mutex_);

  const std::string& path() const { return path_; }

 private:
  const std::string path_;  // lint:allow(guarded-by-coverage) immutable
  mutable Mutex mutex_{LockRank::kJournal, "OutcomeJournal"};
  std::ofstream out_ GUARDED_BY(mutex_);
  Status status_ GUARDED_BY(mutex_);
};

/// \brief Read-only index over a journal file, keyed by
/// (family, pair_id, config).
class JournalIndex {
 public:
  /// Loads a journal. A missing file, or a path that is not a regular
  /// file (a device such as /dev/full), yields an empty index (fresh run);
  /// a malformed line, such as a torn final one, is skipped, so only its
  /// own experiment runs again. Later duplicates win, matching append
  /// order.
  static Result<JournalIndex> Load(const std::string& path);

  const JournalEntry* Find(const std::string& family,
                           const std::string& pair_id,
                           const std::string& config) const;

  size_t size() const { return entries_.size(); }

 private:
  std::unordered_map<std::string, JournalEntry> entries_;
};

}  // namespace valentine

#endif  // VALENTINE_HARNESS_JOURNAL_H_
