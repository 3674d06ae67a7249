#pragma once
// Consistent-hash ring over cluster member names (net/cluster.h,
// docs/CLUSTER.md).
//
// Each member is projected onto the 64-bit ring at kVnodes points
// (virtual nodes) hashed from its name, so load spreads evenly and
// adding/removing one member remaps only ~1/N of the key space.  A key
// (the cluster routing key, service/job.h route_key()) is owned by the
// first ring point clockwise from its mixed position; preference() walks
// onward to produce the failover order — the owner first, then each next
// distinct member, which is what the router falls back through when a
// backend is open-circuited, draining, or dead.
//
// Placement is a pure function of (member names, key): clients and
// servers that agree on the member list agree on ownership with no
// coordination — the property peer cache-hit forwarding relies on.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace picola::net {

class HashRing {
 public:
  /// Ring points per member.
  static constexpr int kVnodes = 64;

  HashRing() = default;

  /// `members` are ring identities (canonically "host:port"); order is
  /// preserved for indexing but does not affect placement.
  explicit HashRing(std::vector<std::string> members);

  size_t size() const { return members_.size(); }
  bool empty() const { return members_.empty(); }
  const std::vector<std::string>& members() const { return members_; }

  /// Index (into members()) of the member owning `key`; -1 when empty.
  int owner(uint64_t key) const;

  /// Member indexes in failover-preference order for `key`: the owner,
  /// then each next distinct member clockwise.  Every member appears
  /// exactly once.
  std::vector<int> preference(uint64_t key) const;

  /// Ring position of one virtual node (exposed for tests).
  static uint64_t point_hash(std::string_view member, uint32_t vnode);

  /// Finalising mix applied to keys before lookup, so routing stays
  /// uniform even for poorly-distributed keys.
  static uint64_t mix(uint64_t x);

 private:
  struct Point {
    uint64_t hash;
    int member;
  };

  std::vector<std::string> members_;
  std::vector<Point> points_;  ///< sorted by hash
};

}  // namespace picola::net
