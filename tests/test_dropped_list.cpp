// Tests for the Fig. 5 dropped-list gossip structure.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "src/sdsrp/dropped_list.hpp"
#include "src/snapshot/archive.hpp"
#include "src/util/rng.hpp"

namespace dtn::sdsrp {
namespace {

TEST(DroppedList, StartsEmpty) {
  DroppedList d(3);
  EXPECT_EQ(d.owner(), 3u);
  EXPECT_DOUBLE_EQ(d.count_drops(1), 0.0);
  EXPECT_FALSE(d.has_own_drop(1));
  EXPECT_EQ(d.known_records(), 0u);
}

TEST(DroppedList, RecordsOwnDrops) {
  DroppedList d(3);
  d.record_local_drop(10, 5.0);
  d.record_local_drop(11, 6.0);
  EXPECT_TRUE(d.has_own_drop(10));
  EXPECT_TRUE(d.has_own_drop(11));
  EXPECT_FALSE(d.has_own_drop(12));
  EXPECT_DOUBLE_EQ(d.count_drops(10), 1.0);
  EXPECT_EQ(d.known_records(), 1u);
}

TEST(DroppedList, MergeAdoptsOtherRecords) {
  DroppedList a(0), b(1);
  b.record_local_drop(10, 5.0);
  a.merge_from(b);
  EXPECT_DOUBLE_EQ(a.count_drops(10), 1.0);
  EXPECT_FALSE(a.has_own_drop(10));  // not a's own drop
}

TEST(DroppedList, MergeKeepsNewestRecordPerOwner) {
  DroppedList a(0), b(1), c(2);
  // b drops 10 at t=5; c learns it; then b drops 11 at t=9.
  b.record_local_drop(10, 5.0);
  c.merge_from(b);
  b.record_local_drop(11, 9.0);
  // a first hears the stale record via c, then the fresh one from b.
  a.merge_from(c);
  EXPECT_DOUBLE_EQ(a.count_drops(11), 0.0);
  a.merge_from(b);
  EXPECT_DOUBLE_EQ(a.count_drops(11), 1.0);
  EXPECT_DOUBLE_EQ(a.count_drops(10), 1.0);
}

TEST(DroppedList, StaleRecordDoesNotOverwriteFresh) {
  DroppedList a(0), b(1), c(2);
  b.record_local_drop(10, 5.0);
  c.merge_from(b);          // c holds b@5
  b.record_local_drop(11, 9.0);
  a.merge_from(b);          // a holds b@9
  a.merge_from(c);          // stale b@5 must not clobber b@9
  EXPECT_DOUBLE_EQ(a.count_drops(11), 1.0);
}

TEST(DroppedList, GossipNeverTouchesOwnRecord) {
  DroppedList a(0), b(1);
  a.record_local_drop(10, 5.0);
  // b fabricates a record claiming to be node 0 (or simply carries an old
  // copy of a's record); a must ignore it.
  b.record_local_drop(99, 50.0);
  DroppedList carrier(2);
  carrier.merge_from(a);  // carrier holds a@5
  a.record_local_drop(12, 7.0);
  a.merge_from(carrier);  // must not roll a's own record back
  EXPECT_TRUE(a.has_own_drop(12));
}

TEST(DroppedList, CountDropsAcrossManyNodes) {
  DroppedList observer(0);
  for (std::size_t node = 1; node <= 5; ++node) {
    DroppedList other(node);
    other.record_local_drop(42, static_cast<double>(node));
    observer.merge_from(other);
  }
  EXPECT_DOUBLE_EQ(observer.count_drops(42), 5.0);
  EXPECT_EQ(observer.known_records(), 5u);
}

TEST(DroppedList, TransitiveGossipPropagates) {
  // a -> b -> c without a ever meeting c.
  DroppedList a(0), b(1), c(2);
  a.record_local_drop(10, 1.0);
  b.merge_from(a);
  c.merge_from(b);
  EXPECT_DOUBLE_EQ(c.count_drops(10), 1.0);
}

// Naive reference for one node's view: owner -> {record time, id set}.
struct ModelList {
  std::size_t owner;
  std::map<std::size_t, std::pair<double, std::set<std::uint64_t>>> records;

  void drop(std::uint64_t msg, double now) {
    auto& own = records[owner];
    own.first = now;
    own.second.insert(msg);
  }
  bool merge_from(const ModelList& other) {
    bool changed = false;
    for (const auto& [node, rec] : other.records) {
      if (node == owner) continue;
      auto it = records.find(node);
      if (it == records.end() || rec.first > it->second.first) {
        records[node] = rec;
        changed = true;
      }
    }
    return changed;
  }
  double count(std::uint64_t msg) const {
    double n = 0;
    for (const auto& [node, rec] : records) n += rec.second.count(msg);
    return n;
  }
  bool has_own(std::uint64_t msg) const {
    const auto it = records.find(owner);
    return it != records.end() && it->second.second.count(msg) > 0;
  }
  // The canonical stream: owners ascending, ids ascending.
  std::vector<std::uint8_t> bytes() const {
    snapshot::ArchiveWriter out;
    out.begin_section("dropped-list");
    out.u64(owner);
    out.u64(records.size());
    for (const auto& [node, rec] : records) {
      out.u64(node);
      out.f64(rec.first);
      out.u64(rec.second.size());
      for (std::uint64_t m : rec.second) out.u64(m);
    }
    out.end_section();
    return out.bytes();
  }
};

std::vector<std::uint8_t> saved(const DroppedList& d) {
  snapshot::ArchiveWriter out;
  d.save_state(out);
  return out.bytes();
}

TEST(DroppedList, MatchesNaiveModelUnderRandomGossip) {
  constexpr std::size_t kLists = 12;
  constexpr std::uint64_t kIds = 48;
  Rng rng(20150901);
  std::vector<DroppedList> lists;
  std::vector<ModelList> model;
  for (std::size_t n = 0; n < kLists; ++n) {
    lists.emplace_back(n);
    model.push_back({n, {}});
  }
  const auto pick = [&rng](std::int64_t hi) {
    return static_cast<std::size_t>(rng.uniform_int(0, hi - 1));
  };
  double now = 0.0;
  for (int op = 0; op < 3000; ++op) {
    // Some steps keep the clock still, so equal record times (which
    // must not be adopted) come up too.
    if (rng.uniform01() < 0.7) now += 1.0;
    const std::size_t a = pick(kLists);
    if (rng.uniform01() < 0.35) {
      const auto msg = static_cast<std::uint64_t>(pick(kIds));
      lists[a].record_local_drop(msg, now);
      model[a].drop(msg, now);
    } else {
      const std::size_t b = pick(kLists);
      ASSERT_EQ(lists[a].merge_from(lists[b]), model[a].merge_from(model[b]))
          << "op " << op << ": merge " << b << " into " << a;
    }
    for (std::size_t n = 0; n < kLists; ++n) {
      ASSERT_EQ(lists[n].known_records(), model[n].records.size())
          << "op " << op << " list " << n;
      for (std::uint64_t msg = 0; msg <= kIds; ++msg) {
        ASSERT_EQ(lists[n].count_drops(msg), model[n].count(msg))
            << "op " << op << " list " << n << " msg " << msg;
        ASSERT_EQ(lists[n].has_own_drop(msg), model[n].has_own(msg))
            << "op " << op << " list " << n << " msg " << msg;
      }
    }
  }
  for (std::size_t n = 0; n < kLists; ++n) {
    const std::vector<std::uint8_t> bytes = saved(lists[n]);
    EXPECT_EQ(bytes, model[n].bytes()) << "list " << n;
    snapshot::ArchiveReader in{std::vector<std::uint8_t>(bytes)};
    DroppedList restored(n);
    restored.load_state(in);
    EXPECT_TRUE(in.at_end());
    EXPECT_EQ(saved(restored), bytes) << "list " << n;
    for (std::uint64_t msg = 0; msg <= kIds; ++msg) {
      EXPECT_EQ(restored.count_drops(msg), model[n].count(msg));
    }
  }
}

}  // namespace
}  // namespace dtn::sdsrp
