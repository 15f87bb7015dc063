#include "knowledge/ontology.h"

#include <gtest/gtest.h>

#include "datasets/chembl.h"

namespace valentine {
namespace {

Ontology MakeTestOntology() {
  Ontology o;
  size_t root = o.AddClass("root", {"root"});
  size_t animal = o.AddSubclass(root, "animal", {"animal", "creature"});
  size_t plant = o.AddSubclass(root, "plant", {"plant"});
  o.AddSubclass(animal, "dog", {"dog", "hound"});
  o.AddSubclass(animal, "cat", {"cat"});
  o.AddSubclass(plant, "tree", {"tree"});
  return o;
}

TEST(OntologyTest, ClassCountAndAccess) {
  Ontology o = MakeTestOntology();
  EXPECT_EQ(o.num_classes(), 6u);
  EXPECT_EQ(o.cls(0).name, "root");
  EXPECT_EQ(o.cls(3).name, "dog");
  EXPECT_EQ(*o.cls(3).parent, 1u);
  EXPECT_FALSE(o.cls(0).parent.has_value());
}

TEST(OntologyTest, HierarchyDistanceSelf) {
  Ontology o = MakeTestOntology();
  EXPECT_EQ(*o.HierarchyDistance(3, 3), 0u);
}

TEST(OntologyTest, HierarchyDistanceSiblings) {
  Ontology o = MakeTestOntology();
  // dog(3) and cat(4) share parent animal(1): distance 2.
  EXPECT_EQ(*o.HierarchyDistance(3, 4), 2u);
}

TEST(OntologyTest, HierarchyDistanceParentChild) {
  Ontology o = MakeTestOntology();
  EXPECT_EQ(*o.HierarchyDistance(1, 3), 1u);
  EXPECT_EQ(*o.HierarchyDistance(3, 1), 1u);
}

TEST(OntologyTest, HierarchyDistanceAcrossBranches) {
  Ontology o = MakeTestOntology();
  // dog(3) -> animal(1) -> root(0) <- plant(2) <- tree(5): distance 4.
  EXPECT_EQ(*o.HierarchyDistance(3, 5), 4u);
}

TEST(OntologyTest, DisconnectedTreesHaveNoDistance) {
  Ontology o;
  o.AddClass("a", {"a"});
  o.AddClass("b", {"b"});
  EXPECT_FALSE(o.HierarchyDistance(0, 1).has_value());
}

TEST(OntologyTest, AllLabelsEnumerated) {
  Ontology o = MakeTestOntology();
  auto labels = o.AllLabels();
  // root(1) + animal(2) + plant(1) + dog(2) + cat(1) + tree(1) = 8.
  EXPECT_EQ(labels.size(), 8u);
}

TEST(EfoLikeOntologyTest, StructureSane) {
  Ontology efo = MakeEfoLikeOntology();
  EXPECT_GT(efo.num_classes(), 10u);
  // Every non-root class reaches the root.
  for (size_t i = 1; i < efo.num_classes(); ++i) {
    EXPECT_TRUE(efo.HierarchyDistance(0, i).has_value()) << i;
  }
  // Labels use the formal EFO-style vocabulary (only partially matching
  // the Assays column names, by design — see MakeEfoLikeOntology docs).
  bool has_organism = false;
  bool has_assay = false;
  for (const auto& [cls, label] : efo.AllLabels()) {
    if (label == "organism") has_organism = true;
    if (label == "assay") has_assay = true;
  }
  EXPECT_TRUE(has_organism);
  EXPECT_TRUE(has_assay);
}

// Every mutator must drop the memoized fingerprint (see the thesaurus
// counterpart in knowledge_thesaurus_test.cpp).
TEST(OntologyFingerprintTest, MemoMatchesFreshlyBuiltCopy) {
  Ontology observed;
  const uint64_t empty = observed.Fingerprint();
  size_t root = observed.AddClass("root", {"root"});
  const uint64_t one = observed.Fingerprint();
  EXPECT_NE(one, empty);
  observed.AddSubclass(root, "animal", {"animal"});
  EXPECT_NE(observed.Fingerprint(), one);

  Ontology fresh;
  fresh.AddSubclass(fresh.AddClass("root", {"root"}), "animal", {"animal"});
  EXPECT_EQ(observed.Fingerprint(), fresh.Fingerprint());

  Ontology copy = observed;
  EXPECT_EQ(copy.Fingerprint(), observed.Fingerprint());
  copy.AddClass("plant", {"plant"});
  EXPECT_NE(copy.Fingerprint(), observed.Fingerprint());
  EXPECT_EQ(MakeTestOntology().Fingerprint(), MakeTestOntology().Fingerprint());
}

}  // namespace
}  // namespace valentine
