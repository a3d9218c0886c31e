// Shared helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>

#include "rma/sim_world.hpp"
#include "rma/thread_world.hpp"

namespace rmalock::test {

/// SimWorld with a fast (zero-cost) network for functional tests.
inline std::unique_ptr<rma::SimWorld> make_sim(topo::Topology topology,
                                               u64 seed = 1) {
  rma::SimOptions opts;
  opts.latency = rma::LatencyModel::zero(topology.num_levels());
  opts.topology = std::move(topology);
  opts.seed = seed;
  return rma::SimWorld::create(std::move(opts));
}

/// SimWorld with the calibrated XC30 model (performance-shape tests).
inline std::unique_ptr<rma::SimWorld> make_sim_xc30(topo::Topology topology,
                                                    u64 seed = 1) {
  rma::SimOptions opts;
  opts.topology = std::move(topology);
  opts.seed = seed;
  return rma::SimWorld::create(std::move(opts));
}

inline std::unique_ptr<rma::ThreadWorld> make_threads(topo::Topology topology,
                                                      u64 seed = 1) {
  rma::ThreadOptions opts;
  opts.topology = std::move(topology);
  opts.seed = seed;
  return rma::ThreadWorld::create(std::move(opts));
}

/// A scratch path unique to the running test. gtest's TempDir() is shared
/// by every test process ctest runs in parallel, so a fixed file name there
/// lets one test overwrite or delete another's file.
inline std::string test_temp_path(const std::string& suffix) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name =
      std::string(info->test_suite_name()) + "." + info->name() + suffix;
  std::replace(name.begin(), name.end(), '/', '_');  // parameterized names
  return ::testing::TempDir() + name;
}

/// A directory unique to the running test (see test_temp_path), created.
inline std::string test_temp_dir() {
  const std::string dir = test_temp_path(".d");
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace rmalock::test
