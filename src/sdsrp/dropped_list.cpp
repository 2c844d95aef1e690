#include "src/sdsrp/dropped_list.hpp"

#include <algorithm>

#include "src/snapshot/archive.hpp"
#include "src/util/error.hpp"

namespace dtn::sdsrp {

namespace {

const std::vector<std::uint64_t>& ids_of(
    const std::shared_ptr<const std::vector<std::uint64_t>>& ids) {
  static const std::vector<std::uint64_t> kNone;
  return ids ? *ids : kNone;
}

}  // namespace

void DroppedList::reindex(const Ids& from, const Ids& to) {
  const auto& a = ids_of(from);
  const auto& b = ids_of(to);
  auto i = a.begin();
  auto j = b.begin();
  while (i != a.end() || j != b.end()) {
    if (j == b.end() || (i != a.end() && *i < *j)) {
      auto it = counts_.find(*i++);
      if (it != counts_.end() && --it->second <= 0) counts_.erase(it);
    } else if (i == a.end() || *j < *i) {
      ++counts_[*j++];
    } else {
      ++i;
      ++j;
    }
  }
}

void DroppedList::record_local_drop(std::uint64_t msg, double now) {
  DropRecord& own = records_[owner_];
  const auto& cur = ids_of(own.dropped);
  const auto pos = std::lower_bound(cur.begin(), cur.end(), msg);
  if (pos == cur.end() || *pos != msg) {
    auto next = std::make_shared<std::vector<std::uint64_t>>();
    next->reserve(cur.size() + 1);
    next->insert(next->end(), cur.begin(), pos);
    next->push_back(msg);
    next->insert(next->end(), pos, cur.end());
    own.dropped = std::move(next);
    ++counts_[msg];
  }
  own.record_time = now;
}

bool DroppedList::has_own_drop(std::uint64_t msg) const {
  const auto it = records_.find(owner_);
  if (it == records_.end()) return false;
  const auto& ids = ids_of(it->second.dropped);
  return std::binary_search(ids.begin(), ids.end(), msg);
}

bool DroppedList::merge_from(const DroppedList& other) {
  bool changed = false;
  // Both maps iterate owners in ascending order: one merge-join walk.
  auto mine = records_.begin();
  for (const auto& [node, rec] : other.records_) {
    if (node == owner_) continue;  // only the owner writes the own record
    while (mine != records_.end() && mine->first < node) ++mine;
    if (mine == records_.end() || mine->first != node) {
      records_.emplace_hint(mine, node, rec);
      reindex(nullptr, rec.dropped);
      changed = true;
    } else if (rec.record_time > mine->second.record_time) {
      if (rec.dropped != mine->second.dropped) {
        reindex(mine->second.dropped, rec.dropped);
      }
      mine->second = rec;
      changed = true;
    }
  }
  return changed;
}

double DroppedList::count_drops(std::uint64_t msg) const {
  const auto it = counts_.find(msg);
  return it != counts_.end() ? static_cast<double>(it->second) : 0.0;
}

void DroppedList::save_state(snapshot::ArchiveWriter& out) const {
  out.begin_section("dropped-list");
  out.u64(owner_);
  out.u64(records_.size());
  for (const auto& [node, rec] : records_) {
    const auto& ids = ids_of(rec.dropped);
    out.u64(node);
    out.f64(rec.record_time);
    out.u64(ids.size());
    for (std::uint64_t m : ids) out.u64(m);
  }
  out.end_section();
}

void DroppedList::load_state(snapshot::ArchiveReader& in) {
  using R = snapshot::ArchiveReader;
  in.begin_section("dropped-list");
  const auto owner = static_cast<std::size_t>(in.u64());
  DTN_REQUIRE(owner == owner_, "dropped-list: snapshot belongs to another node");
  records_.clear();
  counts_.clear();
  const std::uint64_t n_records = in.count(2 * R::kU64Bytes + R::kF64Bytes);
  for (std::uint64_t i = 0; i < n_records; ++i) {
    const auto node = static_cast<std::size_t>(in.u64());
    DTN_REQUIRE(records_.empty() || node > records_.rbegin()->first,
                "dropped-list: record owners must be strictly ascending");
    DropRecord rec;
    rec.record_time = in.f64();
    const std::uint64_t n_msgs = in.count(R::kU64Bytes);
    auto ids = std::make_shared<std::vector<std::uint64_t>>();
    ids->reserve(n_msgs);
    for (std::uint64_t j = 0; j < n_msgs; ++j) {
      const std::uint64_t msg = in.u64();
      DTN_REQUIRE(ids->empty() || msg > ids->back(),
                  "dropped-list: message ids must be strictly ascending");
      ids->push_back(msg);
    }
    rec.dropped = std::move(ids);
    reindex(nullptr, rec.dropped);
    records_.emplace_hint(records_.end(), node, std::move(rec));
  }
  in.end_section();
}

}  // namespace dtn::sdsrp
