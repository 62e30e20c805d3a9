#include "data/catalog.h"

#include <gtest/gtest.h>

namespace dfim {
namespace {

Catalog MakeCatalog() {
  Catalog cat;
  Schema s({Column::Int32("k"), Column::Text("c", 26.5),
            Column::Char("pad", 90.0)});
  Table t("f1", s);
  t.AddPartition(100000);
  t.AddPartition(100000);
  t.AddPartition(50000);
  EXPECT_TRUE(cat.AddTable(std::move(t)).ok());
  IndexDef def;
  def.id = "idx:f1:k";
  def.table = "f1";
  def.columns = {"k"};
  EXPECT_TRUE(cat.DefineIndex(def).ok());
  return cat;
}

TEST(CatalogTest, TableRegistration) {
  Catalog cat = MakeCatalog();
  EXPECT_TRUE(cat.GetTable("f1").ok());
  EXPECT_TRUE(cat.GetTable("nope").status().IsNotFound());
  EXPECT_EQ(cat.TableNames().size(), 1u);
  Table dup("f1", Schema({Column::Int32("x")}));
  EXPECT_TRUE(cat.AddTable(std::move(dup)).IsAlreadyExists());
}

TEST(CatalogTest, IndexDefinitionValidation) {
  Catalog cat = MakeCatalog();
  EXPECT_TRUE(cat.HasIndex("idx:f1:k"));
  IndexDef bad_table{"i2", "nope", {"k"}};
  EXPECT_TRUE(cat.DefineIndex(bad_table).IsNotFound());
  IndexDef bad_col{"i3", "f1", {"zz"}};
  EXPECT_TRUE(cat.DefineIndex(bad_col).IsNotFound());
  IndexDef dup{"idx:f1:k", "f1", {"k"}};
  EXPECT_TRUE(cat.DefineIndex(dup).IsAlreadyExists());
  EXPECT_EQ(cat.IndexIds().size(), 1u);
}

TEST(CatalogTest, BuildLifecycle) {
  Catalog cat = MakeCatalog();
  auto frac = cat.BuiltFraction("idx:f1:k");
  ASSERT_TRUE(frac.ok());
  EXPECT_DOUBLE_EQ(*frac, 0.0);
  EXPECT_TRUE(cat.MarkIndexPartitionBuilt("idx:f1:k", 0, 100).ok());
  EXPECT_TRUE(cat.MarkIndexPartitionBuilt("idx:f1:k", 2, 200).ok());
  frac = cat.BuiltFraction("idx:f1:k");
  EXPECT_NEAR(*frac, 2.0 / 3.0, 1e-12);
  auto size = cat.BuiltSize("idx:f1:k");
  ASSERT_TRUE(size.ok());
  EXPECT_GT(*size, 0);
  auto full = cat.FullSize("idx:f1:k");
  ASSERT_TRUE(full.ok());
  EXPECT_GT(*full, *size);
}

TEST(CatalogTest, MarkBuiltErrors) {
  Catalog cat = MakeCatalog();
  EXPECT_TRUE(cat.MarkIndexPartitionBuilt("nope", 0, 0).IsNotFound());
  EXPECT_TRUE(cat.MarkIndexPartitionBuilt("idx:f1:k", 99, 0).IsNotFound());
}

TEST(IndexPathTest, PartitionPathRoundTrips) {
  IndexDef def{"idx:f1:k", "f1", {"k"}};
  for (int pid : {0, 7, 1234}) {
    std::string id;
    int parsed = -1;
    ASSERT_TRUE(ParseIndexPartitionPath(def.PartitionPath(pid), &id, &parsed));
    EXPECT_EQ(id, def.id);
    EXPECT_EQ(parsed, pid);
  }
}

TEST(IndexPathTest, NonIndexPathRejected) {
  std::string id = "untouched";
  int pid = -1;
  for (const char* path : {"f1/part-0", "idx:f1:k/p.", "idx:f1:k/p.x1",
                           "idx:f1:k/p.-1", "/p.3", "idx:f1:k/q.3"}) {
    EXPECT_FALSE(ParseIndexPartitionPath(path, &id, &pid)) << path;
  }
  EXPECT_EQ(id, "untouched");
  EXPECT_EQ(pid, -1);
}

TEST(CatalogTest, DropIndexReturnsPaths) {
  Catalog cat = MakeCatalog();
  ASSERT_TRUE(cat.MarkIndexPartitionBuilt("idx:f1:k", 0, 100).ok());
  ASSERT_TRUE(cat.MarkIndexPartitionBuilt("idx:f1:k", 1, 100).ok());
  auto dropped = cat.DropIndex("idx:f1:k");
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(dropped->size(), 2u);
  EXPECT_EQ((*dropped)[0], "idx:f1:k/p.0");
  auto frac = cat.BuiltFraction("idx:f1:k");
  EXPECT_DOUBLE_EQ(*frac, 0.0);
  // Dropping again is a no-op.
  dropped = cat.DropIndex("idx:f1:k");
  EXPECT_TRUE(dropped->empty());
}

TEST(CatalogTest, BatchUpdateInvalidatesBuiltPartitions) {
  Catalog cat = MakeCatalog();
  ASSERT_TRUE(cat.MarkIndexPartitionBuilt("idx:f1:k", 0, 100).ok());
  ASSERT_TRUE(cat.MarkIndexPartitionBuilt("idx:f1:k", 1, 100).ok());
  auto invalidated = cat.ApplyBatchUpdate("f1", {0});
  ASSERT_TRUE(invalidated.ok());
  ASSERT_EQ(invalidated->size(), 1u);
  EXPECT_EQ((*invalidated)[0], "idx:f1:k/p.0");
  auto frac = cat.BuiltFraction("idx:f1:k");
  EXPECT_NEAR(*frac, 1.0 / 3.0, 1e-12);
  // The table partition version advanced.
  auto table = cat.GetTable("f1");
  EXPECT_EQ((*table)->partitions()[0].version, 2);
}

TEST(CatalogTest, StaleBuildIsNotCurrent) {
  Catalog cat = MakeCatalog();
  ASSERT_TRUE(cat.MarkIndexPartitionBuilt("idx:f1:k", 0, 100).ok());
  // Update arrives; rebuilding against the new version restores currency.
  ASSERT_TRUE(cat.ApplyBatchUpdate("f1", {0}).ok());
  EXPECT_DOUBLE_EQ(*cat.BuiltFraction("idx:f1:k"), 0.0);
  ASSERT_TRUE(cat.MarkIndexPartitionBuilt("idx:f1:k", 0, 300).ok());
  EXPECT_NEAR(*cat.BuiltFraction("idx:f1:k"), 1.0 / 3.0, 1e-12);
}

TEST(CatalogTest, FullBuildTimePositive) {
  Catalog cat = MakeCatalog();
  auto t = cat.FullBuildTime("idx:f1:k", 125.0);
  ASSERT_TRUE(t.ok());
  EXPECT_GT(*t, 0);
}

}  // namespace
}  // namespace dfim
