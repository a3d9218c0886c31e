#include "mc/schedule.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

namespace rmalock::mc {

const char* policy_name(rma::SchedPolicy policy) {
  switch (policy) {
    case rma::SchedPolicy::kVirtualTime:
      return "virtual-time";
    case rma::SchedPolicy::kRandom:
      return "random";
    case rma::SchedPolicy::kPct:
      return "pct";
    case rma::SchedPolicy::kReplay:
      return "replay";
  }
  return "random";
}

namespace {

// v2 added the crash-injection keys and the negative crash picks; v1 files
// (no crash model) parse unchanged. v3 adds the torn-read keys — emitted
// (and the magic bumped) only when the fault model is armed, so every
// pre-tear case keeps serializing byte-identically as v2. v4 adds the
// gray-failure keys ("delays"/"partitions") under the same rule: emitted
// (and the magic bumped) only when the gray model is armed, keeping every
// pre-gray case byte-identical in its older format. v5 adds the clock-drift
// key ("drift") under the same rule again.
const char kMagicV5[] = "rmalock-trace v5";
const char kMagicV4[] = "rmalock-trace v4";
const char kMagicV3[] = "rmalock-trace v3";
const char kMagic[] = "rmalock-trace v2";
const char kMagicV1[] = "rmalock-trace v1";

bool parse_policy(const std::string& name, rma::SchedPolicy* out) {
  if (name == "virtual-time") *out = rma::SchedPolicy::kVirtualTime;
  else if (name == "random") *out = rma::SchedPolicy::kRandom;
  else if (name == "pct") *out = rma::SchedPolicy::kPct;
  else if (name == "replay") *out = rma::SchedPolicy::kReplay;
  else return false;
  return true;
}

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

}  // namespace

std::string serialize_trace(const TraceCase& c) {
  const rma::FaultConfig& f = c.faults;
  const bool gray = f.max_delays != 0 || f.max_partitions != 0;
  const bool drift = f.max_drift_events != 0;
  std::ostringstream out;
  out << (drift ? kMagicV5
                : (gray ? kMagicV4 : (f.max_tears != 0 ? kMagicV3 : kMagic)))
      << "\n";
  out << "workload " << c.workload << "\n";
  out << "lock " << c.lock_name << "\n";
  out << "kind " << c.kind << "\n";
  out << "topology ";
  const auto& fanouts = c.topology.fanouts();
  if (fanouts.empty()) {
    out << "-";
  } else {
    for (usize i = 0; i < fanouts.size(); ++i) {
      out << (i > 0 ? "," : "") << fanouts[i];
    }
  }
  out << " " << c.topology.procs_per_leaf() << "\n";
  out << "policy " << policy_name(c.recorded_policy) << "\n";
  out << "seed " << c.world_seed << "\n";
  out << "acquires " << c.acquires_per_proc << "\n";
  out << "writer_fraction "
      << std::setprecision(std::numeric_limits<double>::max_digits10)
      << c.writer_fraction << "\n";
  if (!c.writer_roles.empty()) {
    out << "roles ";
    for (const bool writer : c.writer_roles) out << (writer ? '1' : '0');
    out << "\n";
  }
  out << "max_steps " << c.max_steps << "\n";
  if (f.max_crashes != 0) {
    out << "crashes " << f.max_crashes << " " << f.crash_chance_permille << " "
        << (f.restart_crashed ? 1 : 0) << " "
        << (f.adversarial_suspicion ? 1 : 0) << "\n";
  }
  if (f.max_tears != 0) {
    out << "tears " << f.max_tears << " " << f.tear_chance_permille << "\n";
  }
  if (gray) {
    out << "delays " << f.max_delays << " " << f.delay_chance_permille << " "
        << f.delay_factor << "\n";
    out << "partitions " << f.max_partitions << " " << f.partition_span
        << "\n";
  }
  if (drift) {
    out << "drift " << f.max_drift_events << " " << f.drift_chance_permille
        << " " << f.max_drift_permille << " " << f.skew_window << "\n";
  }
  out << "picks " << c.trace.picks.size() << "\n";
  for (usize i = 0; i < c.trace.picks.size(); ++i) {
    out << c.trace.picks[i] << ((i + 1) % 32 == 0 ? "\n" : " ");
  }
  if (c.trace.picks.size() % 32 != 0) out << "\n";
  return out.str();
}

bool parse_trace(const std::string& text, TraceCase* out, std::string* error) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) ||
      (line != kMagic && line != kMagicV1 && line != kMagicV3 &&
       line != kMagicV4 && line != kMagicV5)) {
    return fail(error, "missing 'rmalock-trace v1/v2/v3/v4/v5' header");
  }
  *out = TraceCase{};
  rma::FaultConfig& f = out->faults;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    if (!(fields >> key)) continue;  // blank line
    if (key == "workload") {
      fields >> out->workload;
    } else if (key == "lock") {
      // Lock names may contain spaces; take the rest of the line.
      std::getline(fields >> std::ws, out->lock_name);
    } else if (key == "kind") {
      fields >> out->kind;
    } else if (key == "topology") {
      std::string fanout_spec;
      i32 procs_per_leaf = 0;
      if (!(fields >> fanout_spec >> procs_per_leaf) || procs_per_leaf < 1) {
        return fail(error, "bad topology line: " + line);
      }
      std::vector<i32> fanouts;
      if (fanout_spec != "-") {
        std::istringstream spec(fanout_spec);
        std::string item;
        while (std::getline(spec, item, ',')) {
          const int fanout = std::atoi(item.c_str());
          if (fanout < 1) return fail(error, "bad fanout: " + item);
          fanouts.push_back(fanout);
        }
      }
      out->topology = topo::Topology::uniform(fanouts, procs_per_leaf);
    } else if (key == "policy") {
      std::string name;
      fields >> name;
      if (!parse_policy(name, &out->recorded_policy)) {
        return fail(error, "unknown policy: " + name);
      }
    } else if (key == "seed") {
      fields >> out->world_seed;
    } else if (key == "acquires") {
      fields >> out->acquires_per_proc;
    } else if (key == "writer_fraction") {
      fields >> out->writer_fraction;
    } else if (key == "roles") {
      std::string bits;
      fields >> bits;
      out->writer_roles.clear();
      for (const char c : bits) {
        if (c != '0' && c != '1') return fail(error, "bad roles line: " + line);
        out->writer_roles.push_back(c == '1');
      }
    } else if (key == "max_steps") {
      fields >> out->max_steps;
    } else if (key == "crashes") {
      i32 restart = 0;
      i32 adversarial = 0;
      if (!(fields >> f.max_crashes >> f.crash_chance_permille >>
            restart >> adversarial)) {
        return fail(error, "bad crashes line: " + line);
      }
      f.restart_crashed = restart != 0;
      f.adversarial_suspicion = adversarial != 0;
    } else if (key == "tears") {
      if (!(fields >> f.max_tears >> f.tear_chance_permille)) {
        return fail(error, "bad tears line: " + line);
      }
    } else if (key == "delays") {
      if (!(fields >> f.max_delays >> f.delay_chance_permille >>
            f.delay_factor)) {
        return fail(error, "bad delays line: " + line);
      }
    } else if (key == "partitions") {
      if (!(fields >> f.max_partitions >> f.partition_span)) {
        return fail(error, "bad partitions line: " + line);
      }
    } else if (key == "drift") {
      if (!(fields >> f.max_drift_events >> f.drift_chance_permille >>
            f.max_drift_permille >> f.skew_window)) {
        return fail(error, "bad drift line: " + line);
      }
    } else if (key == "picks") {
      usize count = 0;
      if (!(fields >> count)) return fail(error, "bad picks count");
      out->trace.picks.clear();
      out->trace.picks.reserve(count);
      // Picks may span lines: read from the underlying stream.
      for (usize i = 0; i < count; ++i) {
        Rank pick;
        if (!(fields >> pick) && !(in >> pick)) {
          return fail(error, "trace truncated: expected " +
                                 std::to_string(count) + " picks, got " +
                                 std::to_string(i));
        }
        out->trace.picks.push_back(pick);
      }
    }
    // Unknown keys: ignored (forward compatibility).
  }
  if (!out->writer_roles.empty() &&
      out->writer_roles.size() !=
          static_cast<usize>(out->topology.nprocs())) {
    return fail(error, "roles line has " +
                           std::to_string(out->writer_roles.size()) +
                           " entries for " +
                           std::to_string(out->topology.nprocs()) +
                           " processes");
  }
  return true;
}

bool write_trace_file(const std::string& path, const TraceCase& c,
                      std::string* error) {
  std::ofstream out(path);
  if (!out) return fail(error, "cannot open for writing: " + path);
  out << serialize_trace(c);
  out.flush();
  if (!out) return fail(error, "write failed: " + path);
  return true;
}

bool read_trace_file(const std::string& path, TraceCase* out,
                     std::string* error) {
  std::ifstream in(path);
  if (!in) return fail(error, "cannot open: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return parse_trace(text.str(), out, error);
}

// ---------------------------------------------------------------------------
// ddmin shrinking
// ---------------------------------------------------------------------------

rma::ScheduleTrace shrink_trace(const rma::ScheduleTrace& failing,
                                const TraceOracle& still_fails,
                                u64 max_replays, ShrinkStats* stats) {
  ShrinkStats local;
  local.initial_len = failing.picks.size();
  std::vector<Rank> current = failing.picks;

  const auto budget_left = [&] {
    return max_replays == 0 || local.replays < max_replays;
  };
  const auto fails = [&](const std::vector<Rank>& picks) {
    if (!budget_left()) return false;
    ++local.replays;
    rma::ScheduleTrace candidate;
    candidate.picks = picks;
    return still_fails(candidate);
  };

  // Stage 0: the empty trace (pure fallback schedule) may already fail.
  if (!current.empty() && fails({})) {
    current.clear();
  }

  // Stage 1: shortest failing prefix. Replay of a prefix re-executes the
  // recorded run unchanged up to the violation point, so failing-ness is
  // monotone in prefix length — binary search applies. This discards all
  // decisions recorded after the violation in O(log n) replays.
  if (!current.empty()) {
    usize lo = 0;                  // longest known-good prefix length - 1
    usize hi = current.size();     // shortest known-failing prefix length
    while (lo + 1 < hi && budget_left()) {
      const usize mid = lo + (hi - lo) / 2;
      std::vector<Rank> prefix(current.begin(),
                               current.begin() + static_cast<i64>(mid));
      if (fails(prefix)) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    current.resize(hi);
  }

  // Stage 2: ddmin over the remaining picks — try removing each of n chunks'
  // complement; on success restart coarse, otherwise refine granularity.
  usize n = 2;
  while (current.size() >= 2 && budget_left()) {
    const usize chunk = std::max<usize>(1, (current.size() + n - 1) / n);
    bool reduced = false;
    for (usize start = 0; start < current.size() && budget_left();
         start += chunk) {
      const usize end = std::min(start + chunk, current.size());
      std::vector<Rank> candidate;
      candidate.reserve(current.size() - (end - start));
      candidate.insert(candidate.end(), current.begin(),
                       current.begin() + static_cast<i64>(start));
      candidate.insert(candidate.end(),
                       current.begin() + static_cast<i64>(end), current.end());
      if (fails(candidate)) {
        current = std::move(candidate);
        n = std::max<usize>(2, n - 1);
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      if (chunk <= 1) break;  // 1-minimal: no single pick can be removed
      n = std::min(current.size(), n * 2);
    }
  }

  local.final_len = current.size();
  if (stats != nullptr) *stats = local;
  rma::ScheduleTrace result;
  result.picks = std::move(current);
  return result;
}

}  // namespace rmalock::mc
