#include "matchers/embdi.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>

#include "graph/digraph.h"
#include "knowledge/cooc_embedding.h"
#include "knowledge/word2vec.h"

namespace valentine {

namespace {

/// Per-table artifact: everything the joint-graph build reads from a
/// table, in the order it reads it. Replaying a fragment into a Digraph
/// reproduces the exact GetOrAddNode insertion order of the original
/// single-pass build, so node ids — and therefore walks and training —
/// are byte-identical to the monolithic path.
struct EmbdiPrepared : PreparedTable {
  using PreparedTable::PreparedTable;
  std::vector<std::string> column_names;
  /// One entry per sampled row: the non-null cells as
  /// (column index, rendered value), in column order.
  std::vector<std::vector<std::pair<size_t, std::string>>> rows;
};

/// Replays one table fragment into the shared EmbDI graph. CID/RID
/// tokens are namespaced by table; value tokens are shared across
/// tables. Mirrors the original AddTableToGraph loop structure exactly.
void AddFragmentToGraph(const EmbdiPrepared& frag, const std::string& prefix,
                        Digraph* g) {
  std::vector<NodeId> cids;
  cids.reserve(frag.column_names.size());
  for (const std::string& name : frag.column_names) {
    cids.push_back(g->GetOrAddNode("cid__" + prefix + "__" + name, "cid"));
  }
  for (size_t r = 0; r < frag.rows.size(); ++r) {
    NodeId rid =
        g->GetOrAddNode("rid__" + prefix + "__" + std::to_string(r), "rid");
    for (const auto& cell : frag.rows[r]) {
      NodeId val = g->GetOrAddNode("tt__" + cell.second, "value");
      g->AddEdge(rid, val, "cell");
      g->AddEdge(val, cids[cell.first], "attr");
    }
  }
}

}  // namespace

std::string EmbdiMatcher::PrepareKey() const {
  // Only the row cap shapes the fragment; trainer, dimensions, walks,
  // and seed all act on the joint graph in Score.
  return "rows=" + std::to_string(options_.max_rows);
}

Result<PreparedTablePtr> EmbdiMatcher::Prepare(
    const Table& table, const MatchContext& context) const {
  VALENTINE_RETURN_NOT_OK(context.Check("embdi prepare"));
  auto prepared =
      std::make_shared<EmbdiPrepared>(&table, Name(), PrepareKey());
  prepared->column_names.reserve(table.num_columns());
  for (const Column& c : table.columns()) {
    prepared->column_names.push_back(c.name());
  }
  size_t rows = table.num_rows();
  if (options_.max_rows > 0) rows = std::min(rows, options_.max_rows);
  prepared->rows.resize(rows);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const Value& v = table.column(c)[r];
      if (v.is_null()) continue;
      prepared->rows[r].emplace_back(c, v.AsString());
    }
  }
  return PreparedTablePtr(std::move(prepared));
}

Result<MatchResult> EmbdiMatcher::Score(const PreparedTable& source,
                                        const PreparedTable& target,
                                        const PreparedPair* /*pair*/,
                                        const MatchContext& context) const {
  const auto* src = dynamic_cast<const EmbdiPrepared*>(&source);
  const auto* tgt = dynamic_cast<const EmbdiPrepared*>(&target);
  if (src == nullptr || tgt == nullptr ||
      src->prepare_key() != PrepareKey() ||
      tgt->prepare_key() != PrepareKey()) {
    return MatchWithContext(source.table(), target.table(), context);
  }

  Digraph g;
  AddFragmentToGraph(*src, "A", &g);
  AddFragmentToGraph(*tgt, "B", &g);

  // --- Sentence generation via uniform random walks. ---
  Rng rng(options_.seed);
  std::vector<std::vector<std::string>> sentences;
  sentences.reserve(g.num_nodes() * options_.walks_per_node);
  for (NodeId start = 0; start < g.num_nodes(); ++start) {
    VALENTINE_RETURN_NOT_OK(context.Check("embdi random walks"));
    for (size_t w = 0; w < options_.walks_per_node; ++w) {
      std::vector<std::string> sentence;
      sentence.reserve(options_.sentence_length);
      NodeId cur = start;
      for (size_t s = 0; s < options_.sentence_length; ++s) {
        sentence.push_back(g.name(cur));
        std::vector<NodeId> next = g.Neighbors(cur);
        if (next.empty()) break;
        cur = next[rng.Index(next.size())];
      }
      if (sentence.size() > 1) sentences.push_back(std::move(sentence));
    }
  }

  // --- Train local embeddings (trainer per options). ---
  Word2Vec w2v_model;
  CoocEmbedding cooc_model;
  std::function<const Embedding*(const std::string&)> lookup;
  if (options_.training == EmbdiTraining::kWord2Vec) {
    Word2VecOptions w2v;
    w2v.dimensions = options_.dimensions;
    w2v.window = options_.window_size;
    w2v.epochs = options_.epochs;
    w2v.seed = options_.seed;
    w2v_model = Word2Vec(w2v);
    VALENTINE_RETURN_NOT_OK(w2v_model.TrainWithContext(sentences, context));
    lookup = [&w2v_model](const std::string& w) {
      return w2v_model.Vector(w);
    };
  } else {
    CoocOptions cooc;
    cooc.dimensions = options_.dimensions;
    cooc.window = options_.window_size;
    cooc.seed = options_.seed;
    cooc_model = CoocEmbedding(cooc);
    VALENTINE_RETURN_NOT_OK(context.Check("embdi cooc training"));
    cooc_model.Train(sentences);
    lookup = [&cooc_model](const std::string& w) {
      return cooc_model.Vector(w);
    };
  }

  // --- Match CIDs across tables by cosine similarity. ---
  const Table& source_table = src->table();
  const Table& target_table = tgt->table();
  // column_names[i] is column i's name, so cells index the tables.
  std::vector<ScoredCell> cells;
  cells.reserve(src->column_names.size() * tgt->column_names.size());
  for (size_t i = 0; i < src->column_names.size(); ++i) {
    const Embedding* va = lookup("cid__A__" + src->column_names[i]);
    for (size_t j = 0; j < tgt->column_names.size(); ++j) {
      const Embedding* vb = lookup("cid__B__" + tgt->column_names[j]);
      double sim = 0.0;
      if (va != nullptr && vb != nullptr) {
        // Negative cosine means "unrelated", not "anti-related".
        sim = std::max(0.0, CosineSimilarity(*va, *vb));
      }
      cells.emplace_back(i, j, sim);
    }
  }
  return MatchResult::Ranked(source_table, target_table, std::move(cells));
}

}  // namespace valentine
