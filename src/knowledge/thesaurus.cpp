#include "knowledge/thesaurus.h"

#include <algorithm>
#include <utility>

#include "text/tokenizer.h"

namespace valentine {

void Thesaurus::AddSynonymSet(const std::vector<std::string>& words) {
  fingerprint_.Invalidate();
  // Merge with an existing set if any member is already known.
  size_t target = sets_.size();
  for (const auto& w : words) {
    auto it = word_to_set_.find(w);
    if (it != word_to_set_.end()) {
      target = it->second;
      break;
    }
  }
  if (target == sets_.size()) sets_.emplace_back();
  for (const auto& w : words) {
    std::string lw = ToLower(w);
    if (!word_to_set_.count(lw)) {
      word_to_set_[lw] = target;
      sets_[target].push_back(lw);
    }
  }
}

void Thesaurus::AddHypernym(const std::string& word,
                            const std::string& parent) {
  fingerprint_.Invalidate();
  hypernym_[ToLower(word)] = ToLower(parent);
}

void Thesaurus::AddAbbreviation(const std::string& abbrev,
                                const std::string& expansion) {
  fingerprint_.Invalidate();
  abbreviations_[ToLower(abbrev)] = ToLower(expansion);
}

bool Thesaurus::AreSynonyms(const std::string& a, const std::string& b) const {
  if (a == b) return true;
  auto ia = word_to_set_.find(a);
  auto ib = word_to_set_.find(b);
  return ia != word_to_set_.end() && ib != word_to_set_.end() &&
         ia->second == ib->second;
}

std::string Thesaurus::Expand(const std::string& token) const {
  auto it = abbreviations_.find(token);
  return it == abbreviations_.end() ? token : it->second;
}

namespace {

/// AreSynonyms over resolved words.
bool SameSynset(const std::string& a, size_t set_a, const std::string& b,
                size_t set_b) {
  return a == b || (set_a != Thesaurus::kNoSet && set_a == set_b);
}

}  // namespace

Thesaurus::Term Thesaurus::Resolve(const std::string& word) const {
  Term term;
  term.word = word;
  if (auto it = word_to_set_.find(word); it != word_to_set_.end()) {
    term.set = it->second;
  }
  if (auto it = hypernym_.find(word); it != hypernym_.end()) {
    term.has_parent = true;
    term.parent = it->second;
    if (auto ps = word_to_set_.find(term.parent); ps != word_to_set_.end()) {
      term.parent_set = ps->second;
    }
  }
  return term;
}

double Thesaurus::Relatedness(const Term& a, const Term& b) {
  if (SameSynset(a.word, a.set, b.word, b.set)) return 1.0;
  if (a.has_parent && SameSynset(a.parent, a.parent_set, b.word, b.set)) {
    return 0.8;
  }
  if (b.has_parent && SameSynset(a.word, a.set, b.parent, b.parent_set)) {
    return 0.8;
  }
  if (a.has_parent && b.has_parent &&
      SameSynset(a.parent, a.parent_set, b.parent, b.parent_set)) {
    return 0.8;
  }
  return 0.0;
}

double Thesaurus::Relatedness(const std::string& a,
                              const std::string& b) const {
  if (a == b) return 1.0;  // equal words are synonyms; nothing to resolve
  return Relatedness(Resolve(a), Resolve(b));
}

std::vector<std::string> Thesaurus::Synonyms(const std::string& word) const {
  auto it = word_to_set_.find(word);
  if (it == word_to_set_.end()) return {};
  return sets_[it->second];
}

uint64_t Thesaurus::Fingerprint() const {
  return fingerprint_.Get([this] { return ComputeFingerprint(); });
}

uint64_t Thesaurus::ComputeFingerprint() const {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const std::string& s) {
    for (char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
    h ^= 0xFF;  // terminator so concatenated fields cannot alias
    h *= 1099511628211ULL;
  };
  for (const auto& set : sets_) {
    for (const std::string& w : set) mix(w);
    mix(";");
  }
  // The maps are iterated only to collect entries, which are sorted
  // before hashing — the fingerprint is independent of hash order.
  std::vector<std::pair<std::string, std::string>> entries;
  for (const auto& [k, v] : hypernym_) {  // lint:allow(unordered-iteration)
    entries.emplace_back("h:" + k, v);
  }
  for (const auto& [k, v] :
       abbreviations_) {  // lint:allow(unordered-iteration)
    entries.emplace_back("a:" + k, v);
  }
  std::sort(entries.begin(), entries.end());
  for (const auto& [k, v] : entries) {
    mix(k);
    mix(v);
  }
  return h;
}

const Thesaurus& Thesaurus::Default() {
  static const Thesaurus* kDefault = [] {
    auto* t = new Thesaurus();
    // Synonym sets covering the generators' schema vocabulary.
    t->AddSynonymSet({"client", "customer", "buyer", "patron"});
    t->AddSynonymSet({"id", "identifier", "key", "code"});
    t->AddSynonymSet({"name", "title", "label"});
    t->AddSynonymSet({"surname", "lastname", "familyname"});
    t->AddSynonymSet({"firstname", "forename", "givenname"});
    t->AddSynonymSet({"phone", "telephone", "tel", "mobile"});
    t->AddSynonymSet({"address", "location", "residence"});
    t->AddSynonymSet({"country", "nation", "cntr"});
    t->AddSynonymSet({"city", "town", "municipality"});
    t->AddSynonymSet({"state", "province", "region"});
    t->AddSynonymSet({"zip", "postcode", "postalcode"});
    t->AddSynonymSet({"income", "earnings", "salary", "wage"});
    t->AddSynonymSet({"wealth", "networth", "assets"});
    t->AddSynonymSet({"gender", "sex"});
    t->AddSynonymSet({"age", "years"});
    t->AddSynonymSet({"birthdate", "birthday", "dob", "born"});
    t->AddSynonymSet({"spouse", "partner", "husband", "wife"});
    t->AddSynonymSet({"child", "kid", "offspring"});
    t->AddSynonymSet({"parent", "guardian"});
    t->AddSynonymSet({"employer", "company", "firm", "organization"});
    t->AddSynonymSet({"job", "occupation", "profession", "position"});
    t->AddSynonymSet({"marital", "marriage"});
    t->AddSynonymSet({"car", "vehicle", "automobile"});
    t->AddSynonymSet({"credit", "loan"});
    t->AddSynonymSet({"rating", "score", "grade"});
    t->AddSynonymSet({"owner", "holder", "proprietor"});
    t->AddSynonymSet({"team", "squad", "group", "crew"});
    t->AddSynonymSet({"task", "ticket", "item", "workitem"});
    t->AddSynonymSet({"sprint", "iteration", "cycle"});
    t->AddSynonymSet({"epic", "theme", "initiative"});
    t->AddSynonymSet({"manager", "supervisor", "lead", "boss"});
    t->AddSynonymSet({"department", "division", "unit", "dept"});
    t->AddSynonymSet({"application", "app", "software", "program"});
    t->AddSynonymSet({"hardware", "machine", "server", "host"});
    t->AddSynonymSet({"date", "day", "time"});
    t->AddSynonymSet({"start", "begin", "open"});
    t->AddSynonymSet({"end", "finish", "close", "complete"});
    t->AddSynonymSet({"status", "stage", "phase"});
    t->AddSynonymSet({"description", "summary", "text", "comment"});
    t->AddSynonymSet({"assay", "experiment", "test", "trial"});
    t->AddSynonymSet({"organism", "species"});
    t->AddSynonymSet({"compound", "molecule", "chemical", "substance"});
    t->AddSynonymSet({"target", "goal", "objective"});
    t->AddSynonymSet({"dose", "dosage", "amount", "quantity"});
    t->AddSynonymSet({"cell", "tissue"});
    t->AddSynonymSet({"journal", "publication", "source"});
    t->AddSynonymSet({"singer", "artist", "musician", "performer"});
    t->AddSynonymSet({"song", "track", "single", "record"});
    t->AddSynonymSet({"album", "release", "lp"});
    t->AddSynonymSet({"genre", "style", "category", "type", "kind"});
    t->AddSynonymSet({"movie", "film", "picture"});
    t->AddSynonymSet({"actor", "cast", "star"});
    t->AddSynonymSet({"director", "filmmaker"});
    t->AddSynonymSet({"restaurant", "eatery", "diner"});
    t->AddSynonymSet({"price", "cost", "fee", "charge"});
    t->AddSynonymSet({"beer", "brew", "ale"});
    t->AddSynonymSet({"brewery", "brewer"});
    t->AddSynonymSet({"book", "novel", "publication"});
    t->AddSynonymSet({"author", "writer"});
    t->AddSynonymSet({"year", "yr"});
    t->AddSynonymSet({"rank", "ranking", "place"});
    t->AddSynonymSet({"permit", "license", "licence"});
    t->AddSynonymSet({"issued", "granted"});
    t->AddSynonymSet({"value", "amount", "figure"});
    t->AddSynonymSet({"contractor", "builder", "vendor"});
    t->AddSynonymSet({"ward", "district", "borough"});
    t->AddSynonymSet({"fee", "charge", "levy"});
    t->AddSynonymSet({"units", "count", "number", "num"});

    // Hypernyms (is-a) for mild relatedness.
    t->AddHypernym("city", "address");
    t->AddHypernym("state", "address");
    t->AddHypernym("country", "address");
    t->AddHypernym("zip", "address");
    t->AddHypernym("street", "address");
    t->AddHypernym("salary", "income");
    t->AddHypernym("firstname", "name");
    t->AddHypernym("surname", "name");
    t->AddHypernym("spouse", "relative");
    t->AddHypernym("parent", "relative");
    t->AddHypernym("child", "relative");
    t->AddHypernym("song", "work");
    t->AddHypernym("album", "work");
    t->AddHypernym("movie", "work");
    t->AddHypernym("book", "work");
    t->AddHypernym("singer", "person");
    t->AddHypernym("actor", "person");
    t->AddHypernym("author", "person");
    t->AddHypernym("manager", "person");
    t->AddHypernym("owner", "person");

    // Abbreviations seen in fabricated and generated schemata.
    t->AddAbbreviation("addr", "address");
    t->AddAbbreviation("tel", "telephone");
    t->AddAbbreviation("num", "number");
    t->AddAbbreviation("no", "number");
    t->AddAbbreviation("qty", "quantity");
    t->AddAbbreviation("amt", "amount");
    t->AddAbbreviation("dob", "birthdate");
    t->AddAbbreviation("cntr", "country");
    t->AddAbbreviation("ctry", "country");
    t->AddAbbreviation("st", "state");
    t->AddAbbreviation("dept", "department");
    t->AddAbbreviation("org", "organization");
    t->AddAbbreviation("mgr", "manager");
    t->AddAbbreviation("desc", "description");
    t->AddAbbreviation("descr", "description");
    t->AddAbbreviation("app", "application");
    t->AddAbbreviation("hw", "hardware");
    t->AddAbbreviation("sw", "software");
    t->AddAbbreviation("id", "identifier");
    t->AddAbbreviation("yr", "year");
    t->AddAbbreviation("fname", "firstname");
    t->AddAbbreviation("lname", "lastname");
    t->AddAbbreviation("cust", "customer");
    t->AddAbbreviation("acct", "account");
    t->AddAbbreviation("bal", "balance");
    return t;
  }();
  return *kDefault;
}

}  // namespace valentine
