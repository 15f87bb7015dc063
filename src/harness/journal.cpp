#include "harness/journal.h"

#include <cmath>
#include <filesystem>
#include <system_error>

#include "obs/export.h"
#include "serve/json.h"

namespace valentine {

std::string JournalKey(const std::string& family, const std::string& pair_id,
                       const std::string& config) {
  // \x1f (unit separator) cannot appear in family/pair/config names.
  return family + "\x1f" + pair_id + "\x1f" + config;
}

std::string SerializeJournalEntry(const JournalEntry& entry) {
  using serve::JsonNumberToString;
  std::string out = "{";
  out += "\"family\":\"" + JsonEscape(entry.family) + "\",";
  out += "\"pair_id\":\"" + JsonEscape(entry.pair_id) + "\",";
  out += "\"config\":\"" + JsonEscape(entry.config) + "\",";
  out += "\"code\":\"" + std::string(StatusCodeName(entry.code)) + "\",";
  out += "\"error\":\"" + JsonEscape(entry.error) + "\",";
  out += "\"recall_at_gt\":" + JsonNumberToString(entry.recall_at_gt) + ",";
  out += "\"map\":" + JsonNumberToString(entry.map) + ",";
  out += "\"runtime_ms\":" + JsonNumberToString(entry.runtime_ms) + ",";
  out += "\"attempts\":" + std::to_string(entry.attempts);
  out += "}";
  return out;
}

std::optional<JournalEntry> ParseJournalEntry(const std::string& line) {
  Result<serve::JsonValue> parsed = serve::ParseJson(line);
  if (!parsed.ok()) return std::nullopt;
  const serve::JsonValue& doc = parsed.ValueOrDie();
  auto text = [&doc](const char* key) -> const std::string* {
    const serve::JsonValue* v = doc.Find(key);
    return v != nullptr && v->is_string() ? &v->string_value() : nullptr;
  };
  auto number = [&doc](const char* key) -> std::optional<double> {
    const serve::JsonValue* v = doc.Find(key);
    if (v == nullptr || !v->is_number()) return std::nullopt;
    return v->number_value();
  };
  const std::string* family = text("family");
  const std::string* pair_id = text("pair_id");
  const std::string* config = text("config");
  const std::string* code = text("code");
  const std::string* error = text("error");
  const std::optional<double> recall = number("recall_at_gt");
  const std::optional<double> map = number("map");
  const std::optional<double> runtime = number("runtime_ms");
  const std::optional<double> attempts = number("attempts");
  if (!family || !pair_id || !config || !code || !error || !recall || !map ||
      !runtime || !attempts) {
    return std::nullopt;
  }
  auto parsed_code = StatusCodeFromName(*code);
  if (!parsed_code) return std::nullopt;
  // An experiment ran at least once, and every whole number up to 2^53
  // converts to size_t exactly; anything else (0, negative, fractional,
  // past 2^53) is a malformed line, not a count to replay.
  constexpr double kMaxAttempts = 9007199254740992.0;  // 2^53
  if (!(*attempts >= 1.0 && *attempts <= kMaxAttempts) ||
      *attempts != std::floor(*attempts)) {
    return std::nullopt;
  }
  JournalEntry e;
  e.family = *family;
  e.pair_id = *pair_id;
  e.config = *config;
  e.code = *parsed_code;
  e.error = *error;
  e.recall_at_gt = *recall;
  e.map = *map;
  e.runtime_ms = *runtime;
  e.attempts = static_cast<size_t>(*attempts);
  return e;
}

namespace {

/// Cuts a regular file back to its last newline. A writer killed
/// mid-append leaves a torn final line; an entry appended after it would
/// share its line and be lost to the parser. False when the cut failed.
bool DropTornTail(const std::string& path) {
  std::error_code error;
  if (!std::filesystem::is_regular_file(path, error)) return true;
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const std::streamoff size = in.tellg();
  if (size <= 0) return true;
  in.seekg(size - 1);
  if (in.get() == '\n') return true;
  std::string text(static_cast<size_t>(size), '\0');
  in.seekg(0);
  if (!in.read(text.data(), size)) return false;
  in.close();
  const size_t keep = text.rfind('\n') + 1;  // npos + 1 == 0
  std::filesystem::resize_file(path, keep, error);
  return !error;
}

}  // namespace

OutcomeJournal::OutcomeJournal(const std::string& path) : path_(path) {
  if (!DropTornTail(path)) {
    status_ = Status::IOError("cannot drop the torn tail of journal " + path);
    return;
  }
  out_.open(path, std::ios::app | std::ios::binary);
  if (!out_) {
    status_ = Status::IOError("cannot open journal " + path + " for append");
  }
}

void OutcomeJournal::Append(const JournalEntry& entry) {
  std::string line = SerializeJournalEntry(entry);
  MutexLock lock(&mutex_);
  if (!status_.ok()) return;
  out_ << line << '\n';
  out_.flush();
  if (!out_) {
    status_ = Status::IOError("journal write failed for " + path_);
  }
}

Status OutcomeJournal::status() const {
  MutexLock lock(&mutex_);
  return status_;
}

Result<JournalIndex> JournalIndex::Load(const std::string& path) {
  JournalIndex index;
  // Only a regular file holds a journal. A device such as /dev/full
  // reads as one endless line, so getline would grow until allocation
  // failed.
  std::error_code not_a_file;
  if (!std::filesystem::is_regular_file(path, not_a_file)) return index;
  std::ifstream in(path, std::ios::binary);
  if (!in) return index;  // unreadable journal == fresh run
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto entry = ParseJournalEntry(line);
    // A torn tail (process killed mid-write) ends the replayable prefix.
    if (!entry) break;
    std::string key = JournalKey(entry->family, entry->pair_id,
                                 entry->config);
    index.entries_[std::move(key)] = std::move(*entry);
  }
  return index;
}

const JournalEntry* JournalIndex::Find(const std::string& family,
                                       const std::string& pair_id,
                                       const std::string& config) const {
  auto it = entries_.find(JournalKey(family, pair_id, config));
  if (it == entries_.end()) return nullptr;
  return &it->second;
}

}  // namespace valentine
