#include "harness/journal.h"

#include <cstdio>
#include <cstdlib>

#include "obs/export.h"

namespace valentine {

namespace {

/// %.17g guarantees exact double round-trips (see header).
std::string PreciseNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Inverse of JsonEscape for the subset of escapes it emits.
std::optional<std::string> JsonUnescape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (c != '\\') {
      out.push_back(c);
      continue;
    }
    if (++i >= s.size()) return std::nullopt;
    switch (s[i]) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      case 'u': {
        if (i + 4 >= s.size()) return std::nullopt;
        unsigned code = 0;
        for (size_t k = 1; k <= 4; ++k) {
          char h = s[i + k];
          code <<= 4;
          if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
          else return std::nullopt;
        }
        if (code > 0xff) return std::nullopt;  // writer only emits < 0x20
        out.push_back(static_cast<char>(code));
        i += 4;
        break;
      }
      default: return std::nullopt;
    }
  }
  return out;
}

/// Extracts the raw (still-escaped) value of "key":"..." from a line.
std::optional<std::string> RawStringField(const std::string& line,
                                          const std::string& key) {
  std::string needle = "\"" + key + "\":\"";
  size_t at = line.find(needle);
  if (at == std::string::npos) return std::nullopt;
  size_t start = at + needle.size();
  size_t end = start;
  while (end < line.size()) {
    if (line[end] == '"') {
      // Count preceding backslashes: an even run means the quote closes.
      size_t bs = 0;
      while (end > start + bs && line[end - 1 - bs] == '\\') ++bs;
      if (bs % 2 == 0) break;
    }
    ++end;
  }
  if (end >= line.size()) return std::nullopt;
  return line.substr(start, end - start);
}

std::optional<std::string> StringField(const std::string& line,
                                       const std::string& key) {
  auto raw = RawStringField(line, key);
  if (!raw) return std::nullopt;
  return JsonUnescape(*raw);
}

std::optional<double> NumberField(const std::string& line,
                                  const std::string& key) {
  std::string needle = "\"" + key + "\":";
  size_t at = line.find(needle);
  if (at == std::string::npos) return std::nullopt;
  const char* start = line.c_str() + at + needle.size();
  char* end = nullptr;
  double v = std::strtod(start, &end);
  if (end == start) return std::nullopt;
  return v;
}

}  // namespace

std::string JournalKey(const std::string& family, const std::string& pair_id,
                       const std::string& config) {
  // \x1f (unit separator) cannot appear in family/pair/config names.
  return family + "\x1f" + pair_id + "\x1f" + config;
}

std::string SerializeJournalEntry(const JournalEntry& entry) {
  std::string out = "{";
  out += "\"family\":\"" + JsonEscape(entry.family) + "\",";
  out += "\"pair_id\":\"" + JsonEscape(entry.pair_id) + "\",";
  out += "\"config\":\"" + JsonEscape(entry.config) + "\",";
  out += "\"code\":\"" + std::string(StatusCodeName(entry.code)) + "\",";
  out += "\"error\":\"" + JsonEscape(entry.error) + "\",";
  out += "\"recall_at_gt\":" + PreciseNumber(entry.recall_at_gt) + ",";
  out += "\"map\":" + PreciseNumber(entry.map) + ",";
  out += "\"runtime_ms\":" + PreciseNumber(entry.runtime_ms) + ",";
  out += "\"attempts\":" + std::to_string(entry.attempts);
  out += "}";
  return out;
}

std::optional<JournalEntry> ParseJournalEntry(const std::string& line) {
  if (line.empty() || line.front() != '{' || line.back() != '}') {
    return std::nullopt;
  }
  JournalEntry e;
  auto family = StringField(line, "family");
  auto pair_id = StringField(line, "pair_id");
  auto config = StringField(line, "config");
  auto code = StringField(line, "code");
  auto error = StringField(line, "error");
  auto recall = NumberField(line, "recall_at_gt");
  auto map = NumberField(line, "map");
  auto runtime = NumberField(line, "runtime_ms");
  auto attempts = NumberField(line, "attempts");
  if (!family || !pair_id || !config || !code || !error || !recall || !map ||
      !runtime || !attempts) {
    return std::nullopt;
  }
  auto parsed_code = StatusCodeFromName(*code);
  if (!parsed_code) return std::nullopt;
  e.family = std::move(*family);
  e.pair_id = std::move(*pair_id);
  e.config = std::move(*config);
  e.code = *parsed_code;
  e.error = std::move(*error);
  e.recall_at_gt = *recall;
  e.map = *map;
  e.runtime_ms = *runtime;
  e.attempts = static_cast<size_t>(*attempts);
  return e;
}

OutcomeJournal::OutcomeJournal(const std::string& path)
    : path_(path), out_(path, std::ios::app | std::ios::binary) {
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
  std::ifstream in(path, std::ios::binary);
  if (!in) return index;  // missing journal == fresh run
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
