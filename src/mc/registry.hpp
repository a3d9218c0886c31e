// Named workloads: the one registry that maps a stable workload id — the id
// mc_verification campaigns run under and trace files record — back to the
// mc::Workload it names, so a counterexample stays replayable long after
// the campaign finished. Campaigns, `mc_verification --replay` and the
// replay goldens all resolve ids here.
#pragma once

#include <optional>
#include <string>

#include "mc/checker.hpp"

namespace rmalock::mc {

/// The workload `id` names, built for machines of `topology` (keyed
/// families pick their cross-slot keys on it), or nullopt for an unknown
/// id. Each entry owns everything a replay needs: its lock factory, its
/// key count (ls:* use 2 keys, opt:* and rehome:* one), and its planted
/// policy (timeout:no-backoff disables backoff itself).
std::optional<Workload> named_workload(const std::string& id,
                                       const topo::Topology& topology);

}  // namespace rmalock::mc
