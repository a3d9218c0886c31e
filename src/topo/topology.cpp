#include "topo/topology.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "common/check.hpp"

namespace rmalock::topo {

Topology Topology::uniform(std::vector<i32> fanouts, i32 procs_per_leaf) {
  RMALOCK_CHECK_MSG(procs_per_leaf >= 1,
                    "procs_per_leaf=" << procs_per_leaf << " must be >= 1");
  Topology t;
  t.fanouts_ = std::move(fanouts);
  t.elements_.clear();
  t.elements_.reserve(t.fanouts_.size() + 1);
  i32 count = 1;
  t.elements_.push_back(count);
  for (const i32 f : t.fanouts_) {
    RMALOCK_CHECK_MSG(f >= 1, "fanout=" << f << " must be >= 1");
    count *= f;
    t.elements_.push_back(count);
  }
  t.nprocs_ = count * procs_per_leaf;
  return t;
}

Topology Topology::nodes(i32 num_nodes, i32 procs_per_node) {
  RMALOCK_CHECK(num_nodes >= 1);
  if (num_nodes == 1) return uniform({}, procs_per_node);
  return uniform({num_nodes}, procs_per_node);
}

Topology Topology::parse(const std::string& spec) {
  std::vector<i32> parts;
  std::istringstream in(spec);
  std::string token;
  while (std::getline(in, token, 'x')) {
    RMALOCK_CHECK_MSG(!token.empty(), "bad topology spec '" << spec << "'");
    parts.push_back(static_cast<i32>(std::strtol(token.c_str(), nullptr, 10)));
  }
  RMALOCK_CHECK_MSG(!parts.empty(), "empty topology spec");
  const i32 ppl = parts.back();
  parts.pop_back();
  return uniform(std::move(parts), ppl);
}

Topology Topology::discover(i32 default_nprocs) {
  if (const char* env = std::getenv("RMALOCK_TOPO")) {
    return parse(env);
  }
  return uniform({}, default_nprocs);
}

std::vector<Rank> Topology::counter_hosts(i32 tdc, Rank anchor) const {
  RMALOCK_CHECK_MSG(tdc >= 1, "T_DC=" << tdc << " must be >= 1");
  RMALOCK_CHECK_MSG(anchor >= 0, "anchor=" << anchor << " must be >= 0");
  std::vector<Rank> hosts;
  for (Rank base = 0; base < nprocs_; base += tdc) {
    hosts.push_back(base + anchor % std::min(tdc, nprocs_ - base));
  }
  return hosts;
}

std::string Topology::describe() const {
  std::ostringstream out;
  out << "N=" << num_levels() << " [machine";
  for (usize k = 0; k < fanouts_.size(); ++k) {
    out << " x " << elements_[k + 1]
        << (k + 1 == fanouts_.size() ? " leaves" : " groups");
  }
  out << "], " << procs_per_leaf() << " procs/leaf, P=" << nprocs_;
  return out.str();
}

}  // namespace rmalock::topo
