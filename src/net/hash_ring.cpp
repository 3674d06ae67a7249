#include "net/hash_ring.h"

#include <algorithm>

namespace picola::net {

namespace {

/// FNV-1a over the member name — the per-member base the vnode mix
/// starts from.
uint64_t fnv1a(std::string_view s) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace

uint64_t HashRing::mix(uint64_t x) {
  // splitmix64 finisher: bijective, avalanches every input bit.
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

uint64_t HashRing::point_hash(std::string_view member, uint32_t vnode) {
  return mix(fnv1a(member) ^ (0x9E3779B97F4A7C15ULL * (vnode + 1)));
}

HashRing::HashRing(std::vector<std::string> members)
    : members_(std::move(members)) {
  points_.reserve(members_.size() * kVnodes);
  for (size_t m = 0; m < members_.size(); ++m) {
    for (int v = 0; v < kVnodes; ++v) {
      points_.push_back(Point{
          point_hash(members_[m], static_cast<uint32_t>(v)),
          static_cast<int>(m)});
    }
  }
  std::sort(points_.begin(), points_.end(),
            [](const Point& a, const Point& b) {
              // Member index tiebreak keeps placement deterministic even
              // on the (astronomically unlikely) vnode hash collision.
              return a.hash != b.hash ? a.hash < b.hash : a.member < b.member;
            });
}

int HashRing::owner(uint64_t key) const {
  if (points_.empty()) return -1;
  uint64_t h = mix(key);
  auto it = std::lower_bound(points_.begin(), points_.end(), h,
                             [](const Point& p, uint64_t v) {
                               return p.hash < v;
                             });
  if (it == points_.end()) it = points_.begin();  // wrap
  return it->member;
}

std::vector<int> HashRing::preference(uint64_t key) const {
  std::vector<int> order;
  if (points_.empty()) return order;
  order.reserve(members_.size());
  std::vector<char> seen(members_.size(), 0);
  uint64_t h = mix(key);
  auto it = std::lower_bound(points_.begin(), points_.end(), h,
                             [](const Point& p, uint64_t v) {
                               return p.hash < v;
                             });
  size_t start = it == points_.end()
                     ? 0
                     : static_cast<size_t>(it - points_.begin());
  for (size_t i = 0; i < points_.size() && order.size() < members_.size();
       ++i) {
    const Point& p = points_[(start + i) % points_.size()];
    if (!seen[static_cast<size_t>(p.member)]) {
      seen[static_cast<size_t>(p.member)] = 1;
      order.push_back(p.member);
    }
  }
  return order;
}

}  // namespace picola::net
