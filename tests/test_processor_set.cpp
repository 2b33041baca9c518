#include "cluster/processor_set.hpp"

#include <gtest/gtest.h>

namespace locmps {
namespace {

TEST(ProcessorSet, StartsEmpty) {
  ProcessorSet s(10);
  EXPECT_EQ(s.capacity(), 10u);
  EXPECT_EQ(s.count(), 0u);
  EXPECT_TRUE(s.empty());
}

TEST(ProcessorSet, InsertEraseContains) {
  ProcessorSet s(70);  // spans two words
  s.insert(0);
  s.insert(63);
  s.insert(64);
  s.insert(69);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_TRUE(s.contains(63));
  EXPECT_TRUE(s.contains(64));
  EXPECT_FALSE(s.contains(1));
  s.erase(63);
  EXPECT_FALSE(s.contains(63));
  EXPECT_EQ(s.count(), 3u);
}

TEST(ProcessorSet, AllHasFullCount) {
  for (std::size_t cap : {1u, 63u, 64u, 65u, 128u, 130u}) {
    const ProcessorSet s = ProcessorSet::all(cap);
    EXPECT_EQ(s.count(), cap) << "cap=" << cap;
    EXPECT_TRUE(s.contains(static_cast<ProcId>(cap - 1)));
  }
}

TEST(ProcessorSet, OfAndRange) {
  const auto s = ProcessorSet::of(16, {1, 3, 5});
  EXPECT_EQ(s.count(), 3u);
  EXPECT_TRUE(s.contains(3));
  const auto r = ProcessorSet::range(16, 4, 3);
  EXPECT_EQ(r.to_vector(), (std::vector<ProcId>{4, 5, 6}));
}

TEST(ProcessorSet, SetAlgebra) {
  const auto a = ProcessorSet::of(8, {0, 1, 2});
  const auto b = ProcessorSet::of(8, {2, 3});
  EXPECT_EQ((a | b).count(), 4u);
  EXPECT_EQ((a & b).to_vector(), (std::vector<ProcId>{2}));
  EXPECT_EQ((a - b).to_vector(), (std::vector<ProcId>{0, 1}));
}

TEST(ProcessorSet, IntersectionCountAndDisjoint) {
  const auto a = ProcessorSet::of(128, {0, 64, 127});
  const auto b = ProcessorSet::of(128, {64, 127});
  EXPECT_EQ(a.intersection_count(b), 2u);
  EXPECT_FALSE(a.disjoint(b));
  const auto c = ProcessorSet::of(128, {1, 2});
  EXPECT_TRUE(a.disjoint(c));
}

TEST(ProcessorSet, Equality) {
  auto a = ProcessorSet::of(8, {1, 2});
  auto b = ProcessorSet::of(8, {1, 2});
  EXPECT_EQ(a, b);
  b.insert(3);
  EXPECT_NE(a, b);
}

TEST(ProcessorSet, FirstAndIteration) {
  const auto s = ProcessorSet::of(128, {5, 70, 100});
  EXPECT_EQ(s.first(), 5u);
  std::vector<ProcId> seen;
  s.for_each([&](ProcId p) { seen.push_back(p); });
  EXPECT_EQ(seen, (std::vector<ProcId>{5, 70, 100}));
  EXPECT_EQ(ProcessorSet(4).first(), 4u);  // empty -> capacity
}

TEST(ProcessorSet, ToString) {
  EXPECT_EQ(ProcessorSet::of(8, {0, 2}).to_string(), "{0,2}");
  EXPECT_EQ(ProcessorSet(8).to_string(), "{}");
}

TEST(ProcessorSet, ClearEmptiesSet) {
  auto s = ProcessorSet::all(65);
  s.clear();
  EXPECT_TRUE(s.empty());
}

}  // namespace
}  // namespace locmps
