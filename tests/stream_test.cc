#include <gtest/gtest.h>

#include "stream/sliding_window.h"

namespace butterfly {
namespace {

Transaction T(Tid tid, std::initializer_list<Item> items) {
  return Transaction(tid, Itemset(items));
}

TEST(SlidingWindowTest, FillsToCapacity) {
  SlidingWindow w(3);
  EXPECT_FALSE(w.Full());
  EXPECT_FALSE(w.Append(T(0, {1})).has_value());
  EXPECT_FALSE(w.Append(T(0, {2})).has_value());
  EXPECT_FALSE(w.Append(T(0, {3})).has_value());
  EXPECT_TRUE(w.Full());
  EXPECT_EQ(w.size(), 3u);
}

TEST(SlidingWindowTest, EvictsOldestWhenFull) {
  SlidingWindow w(2);
  w.Append(T(0, {1}));
  w.Append(T(0, {2}));
  std::optional<Transaction> evicted = w.Append(T(0, {3}));
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->items, (Itemset{1}));
  EXPECT_EQ(w.transactions().front().items, (Itemset{2}));
  EXPECT_EQ(w.transactions().back().items, (Itemset{3}));
}

TEST(SlidingWindowTest, AssignsStreamTids) {
  SlidingWindow w(2);
  w.Append(T(0, {1}));
  w.Append(T(0, {2}));
  EXPECT_EQ(w.transactions()[0].tid, 1u);
  EXPECT_EQ(w.transactions()[1].tid, 2u);
  EXPECT_EQ(w.stream_position(), 2u);
}

TEST(SlidingWindowTest, PreservesExplicitTids) {
  SlidingWindow w(2);
  w.Append(T(42, {1}));
  EXPECT_EQ(w.transactions()[0].tid, 42u);
}

TEST(SlidingWindowTest, LabelMatchesPaperNotation) {
  SlidingWindow w(8);
  for (int i = 0; i < 12; ++i) w.Append(T(0, {1}));
  EXPECT_EQ(w.Label(), "Ds(12, 8)");
}

TEST(SlidingWindowTest, SnapshotCopiesInOrder) {
  SlidingWindow w(2);
  w.Append(T(0, {1}));
  w.Append(T(0, {2}));
  w.Append(T(0, {3}));
  std::vector<Transaction> snap = w.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].items, (Itemset{2}));
  EXPECT_EQ(snap[1].items, (Itemset{3}));
}

}  // namespace
}  // namespace butterfly
