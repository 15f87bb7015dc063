#include "datasets/magellan.h"

#include <cmath>

#include "datasets/synthetic.h"
#include "fabrication/splitter.h"
#include "text/typo_model.h"

namespace valentine {

namespace {

/// Applies real-world discrepancies to one shard: per-cell case jitter,
/// typos, and punctuation drift on strings, value jitter on numerics —
/// the kind of cross-source drift (fodors-vs-zagat, rotten-vs-imdb)
/// these entity-matching datasets are famous for. This is what pulls
/// the instance-based methods below the schema-based ones on Magellan
/// (paper Table III).
void ApplyDiscrepancies(Table* t, double rate, Rng* rng) {
  TypoModel typos(0.08);
  for (size_t c = 0; c < t->num_columns(); ++c) {
    Column& col = t->column(c);
    const bool numeric = col.NumericFraction() > 0.9;
    for (size_t r = 0; r < col.size(); ++r) {
      Value& v = col[r];
      if (v.is_null() || !rng->Bernoulli(rate)) continue;
      if (numeric) {
        // Sources disagree on exact figures (ratings, prices, counts).
        auto d = v.TryFloat();
        if (!d) continue;
        double jittered = *d * rng->UniformDouble(0.92, 1.08);
        if (v.kind() == DataType::kInt64) {
          v = Value::Int(static_cast<int64_t>(std::llround(jittered)));
        } else {
          v = Value::Float(std::round(jittered * 10.0) / 10.0);
        }
        continue;
      }
      std::string s = v.AsString();
      switch (rng->Index(3)) {
        case 0:  // case jitter
          for (char& ch : s) {
            ch = static_cast<char>(std::toupper(
                static_cast<unsigned char>(ch)));
          }
          break;
        case 1:  // typo
          s = typos.Perturb(s, rng);
          break;
        default:  // surrounding whitespace / punctuation drift
          s = s + ".";
          break;
      }
      v = Value::String(std::move(s));
    }
  }
}

/// Reformats a phone-style column in place ("123/456-7890" ->
/// "(123) 456-7890"): the classic cross-source encoding difference.
void ReformatPhones(Table* t, const std::string& column) {
  auto idx = t->ColumnIndex(column);
  if (!idx) return;
  Column& col = t->column(*idx);
  for (size_t r = 0; r < col.size(); ++r) {
    std::string s = col[r].AsString();
    std::string digits;
    for (char c : s) {
      if (c >= '0' && c <= '9') digits.push_back(c);
    }
    if (digits.size() != 10) continue;
    std::string phone = "(";
    phone.append(digits, 0, 3).append(") ").append(digits, 3, 3);
    phone.append("-").append(digits, 6);
    col[r] = Value::String(std::move(phone));
  }
}

/// Shuffles the element order of "; "-joined multi-valued cells —
/// sources list actors in different orders, so the joined strings stop
/// matching exactly (the multi-valued complication of §VII-B2).
void ReorderLists(Table* t, const std::string& column, Rng* rng) {
  auto idx = t->ColumnIndex(column);
  if (!idx) return;
  Column& col = t->column(*idx);
  for (size_t r = 0; r < col.size(); ++r) {
    std::string s = col[r].AsString();
    std::vector<std::string> parts;
    size_t pos = 0;
    while (true) {
      size_t sep = s.find("; ", pos);
      if (sep == std::string::npos) {
        parts.push_back(s.substr(pos));
        break;
      }
      parts.push_back(s.substr(pos, sep - pos));
      pos = sep + 2;
    }
    if (parts.size() < 2) continue;
    rng->Shuffle(&parts);
    std::string joined;
    for (size_t i = 0; i < parts.size(); ++i) {
      if (i > 0) joined += "; ";
      joined += parts[i];
    }
    col[r] = Value::String(std::move(joined));
  }
}

/// Builds a unionable Magellan-style pair from one base table: identical
/// column names, ~60% row overlap, discrepancies on the second shard.
DatasetPair MakeUnionablePair(const Table& base, const std::string& id,
                              double discrepancy_rate, Rng* rng) {
  HorizontalSplit hs =
      SplitRowsWithOverlap(base.num_rows(), 0.6, rng);
  DatasetPair p;
  p.scenario = Scenario::kUnionable;
  p.source = base.TakeRows(hs.rows_a);
  p.target = base.TakeRows(hs.rows_b);
  p.source.set_name(base.name() + "_a");
  p.target.set_name(base.name() + "_b");
  ApplyDiscrepancies(&p.target, discrepancy_rate, rng);
  for (const auto& name : base.ColumnNames()) {
    p.ground_truth.push_back({name, name});
  }
  p.id = id;
  return p;
}

const std::vector<std::string>& Cuisines() {
  static const std::vector<std::string> kPool = {
      "italian", "mexican",  "chinese", "japanese", "thai",
      "indian",  "american", "french",  "greek",    "korean",
  };
  return kPool;
}

const std::vector<std::string>& MovieTitles() {
  static const std::vector<std::string> kPool = {
      "The Last Harbor",   "Midnight Circuit", "Paper Mountains",
      "A Quiet Divide",    "Iron Meridian",    "The Glass Orchard",
      "Falling Northward", "Silent Cartography","Ember and Ash",
      "The Seventh Tide",  "Hollow Crown",     "Beneath the Static",
      "Crimson Ledger",    "The Long Thaw",    "Orbit of Sparrows",
      "Velvet Armistice",  "The Cartel Waltz", "Stray Light",
      "Winter's Apostle",  "The Benevolent Liar",
  };
  return kPool;
}

/// Multi-valued attribute: a semicolon-joined list of 2-4 person names.
void AddPersonListColumn(Table* t, const std::string& name, size_t rows,
                         Rng* rng) {
  Column c(name, DataType::kString);
  for (size_t i = 0; i < rows; ++i) {
    size_t n = 2 + rng->Index(3);
    std::string list;
    for (size_t k = 0; k < n; ++k) {
      if (k > 0) list += "; ";
      list += rng->Pick(vocab::FirstNames()) + " " +
              rng->Pick(vocab::LastNames());
    }
    c.Append(Value::String(std::move(list)));
  }
  (void)t->AddColumn(std::move(c));
}

}  // namespace

std::vector<DatasetPair> MakeMagellanPairs(size_t rows, uint64_t seed) {
  Rng rng(seed);
  std::vector<DatasetPair> pairs;

  // 1. Restaurants: name, address, city, phone, cuisine (5 cols).
  {
    SyntheticTableBuilder b("restaurants", rows, rng.Next());
    b.AddTextColumn("name", vocab::Words(), 1, 3)
        .AddPatternColumn("address", "ddd aA")
        .AddCategorical("city", vocab::Cities())
        .AddPatternColumn("phone", "ddd/ddd-dddd")
        .AddCategorical("cuisine", Cuisines());
    DatasetPair p =
        MakeUnionablePair(b.Build(), "magellan_restaurants", 0.35, &rng);
    ReformatPhones(&p.target, "phone");  // fodors/zagat-style drift
    pairs.push_back(std::move(p));
  }

  // 2. Movies (rotten/imdb style): title, year, director, actors(list),
  // rating, genre (6 cols, multi-valued actors).
  {
    SyntheticTableBuilder b("movies1", rows, rng.Next());
    b.AddCategorical("title", MovieTitles())
        .AddUniformInt("year", 1960, 2020)
        .AddPersonNameColumn("director")
        .AddGaussianFloat("rating", 6.4, 1.2)
        .AddCategorical("genre", {"drama", "comedy", "thriller", "action",
                                  "romance", "horror", "sci-fi"});
    Table t = b.Build();
    AddPersonListColumn(&t, "actors", rows, &rng);
    DatasetPair p = MakeUnionablePair(t, "magellan_movies1", 0.35, &rng);
    ReorderLists(&p.target, "actors", &rng);  // multi-valued complication
    pairs.push_back(std::move(p));
  }

  // 3. Movies (anime style): title, year, episodes, producer (4 cols).
  {
    SyntheticTableBuilder b("movies2", rows, rng.Next());
    b.AddCategorical("title", MovieTitles())
        .AddUniformInt("year", 1980, 2021)
        .AddUniformInt("episodes", 1, 120)
        .AddCategorical("producer", vocab::Companies());
    pairs.push_back(
        MakeUnionablePair(b.Build(), "magellan_movies2", 0.2, &rng));
  }

  // 4. Beers: name, brewery, style, abv, ibu (5 cols).
  {
    SyntheticTableBuilder b("beers", rows, rng.Next());
    b.AddTextColumn("beer_name", vocab::Words(), 1, 3)
        .AddCategorical("brew_factory_name", vocab::Companies())
        .AddCategorical("style", {"IPA", "stout", "lager", "pilsner",
                                  "porter", "saison", "wheat", "amber ale"})
        .AddGaussianFloat("abv", 5.8, 1.4)
        .AddUniformInt("ibu", 5, 110);
    pairs.push_back(
        MakeUnionablePair(b.Build(), "magellan_beers", 0.25, &rng));
  }

  // 5. Books: title, author, isbn, publisher, pages, price (6 cols).
  {
    SyntheticTableBuilder b("books", rows, rng.Next());
    b.AddTextColumn("title", vocab::Words(), 2, 5)
        .AddPersonNameColumn("author")
        .AddPatternColumn("isbn", "ddd-d-dd-dddddd-d")
        .AddCategorical("publisher", vocab::Companies())
        .AddUniformInt("pages", 90, 1200)
        .AddGaussianFloat("price", 22.0, 9.0);
    pairs.push_back(
        MakeUnionablePair(b.Build(), "magellan_books", 0.2, &rng));
  }

  // 6. Music: song, artist, album, genre, duration, year (6 cols).
  {
    SyntheticTableBuilder b("music", rows, rng.Next());
    b.AddTextColumn("song_name", vocab::Words(), 1, 4)
        .AddPersonNameColumn("artist_name")
        .AddTextColumn("album_name", vocab::Words(), 1, 3)
        .AddCategorical("genre", vocab::MusicGenres())
        .AddUniformInt("duration_sec", 95, 560)
        .AddUniformInt("released", 1955, 2021);
    pairs.push_back(
        MakeUnionablePair(b.Build(), "magellan_music", 0.3, &rng));
  }

  // 7. Bikes: model, brand, price, city, km_driven, owner_count (6 cols,
  // the largest of the Magellan pairs).
  {
    SyntheticTableBuilder b("bikes", rows * 2, rng.Next());
    b.AddTextColumn("bike_name", vocab::Words(), 2, 4)
        .AddCategorical("brand", vocab::Companies())
        .AddGaussianInt("price", 52000, 21000, 5000)
        .AddCategorical("city_posted", vocab::Cities())
        .AddGaussianInt("km_driven", 25000, 14000, 100)
        .AddCategorical("owner_type", {"first", "second", "third", "fourth"});
    pairs.push_back(
        MakeUnionablePair(b.Build(), "magellan_bikes", 0.25, &rng));
  }

  return pairs;
}

}  // namespace valentine
