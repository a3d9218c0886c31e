// Figure 6 (§5.3): distributed hashtable case study — total time of a
// fixed per-process operation mix against one local volume, for
// F_W in {20%, 5%, 2%, 0%}, comparing foMPI-A (lock-free atomics),
// foMPI-RW, and RMA-RW.
#include "fig_helpers.hpp"
#include "harness/dht_bench.hpp"
#include "lockspace/lockspace.hpp"

namespace rmalock::bench {
namespace {

dht::DhtConfig volume_for(i32 p, i32 ops, double fw) {
  dht::DhtConfig config;
  config.table_buckets = 256;  // overflow chains grow over the run (§5.3)
  // Upper bound on inserts plus slack: every op could be an insert that
  // collides into the heap.
  const auto inserts =
      static_cast<i64>(static_cast<double>(p) * ops * fw * 1.5) + 256;
  config.heap_entries = static_cast<i32>(inserts);
  return config;
}

harness::DhtBenchConfig bench_config(const BenchEnv& env, double fw) {
  harness::DhtBenchConfig config;
  config.ops_per_proc = env.quick ? 15 : 30;
  config.fw = fw;
  return config;
}

void run_panel(FigureReport& report, const BenchEnv& env, double fw,
               const std::string& suffix) {
  const harness::DhtBenchConfig config = bench_config(env, fw);
  const i32 ops = config.ops_per_proc;
  for (const i32 p : env.ps) {
    {
      auto world = rma::SimWorld::create(env.sim_options_for(p));
      dht::DistributedHashTable table(*world, volume_for(p, ops, fw));
      const auto result = harness::run_dht_atomics_bench(*world, table, config);
      report.add("foMPI-A " + suffix, p, "total_time_ms",
                 static_cast<double>(result.elapsed_ns) / 1e6);
      report.add("foMPI-A " + suffix, p, "drop_rate", result.drop_rate());
    }
    {
      auto world = rma::SimWorld::create(env.sim_options_for(p));
      dht::DistributedHashTable table(*world, volume_for(p, ops, fw));
      locks::FompiRw lock(*world);
      const auto result =
          harness::run_dht_locked_bench(*world, table, lock, config);
      report.add("foMPI-RW " + suffix, p, "total_time_ms",
                 static_cast<double>(result.elapsed_ns) / 1e6);
      report.add("foMPI-RW " + suffix, p, "drop_rate", result.drop_rate());
    }
    {
      auto world = rma::SimWorld::create(env.sim_options_for(p));
      dht::DistributedHashTable table(*world, volume_for(p, ops, fw));
      locks::RmaRw lock(*world, rw_params(world->topology(), /*tdc=*/16,
                                          /*tl_leaf=*/16, /*tl_root=*/16,
                                          /*tr=*/1000));
      const auto result =
          harness::run_dht_locked_bench(*world, table, lock, config);
      report.add("RMA-RW " + suffix, p, "total_time_ms",
                 static_cast<double>(result.elapsed_ns) / 1e6);
      report.add("RMA-RW " + suffix, p, "drop_rate", result.drop_rate());
    }
    {
      // The same synchronization through the LockSpace directory: one
      // named lock per volume (RMA-RW backend with its default parameters,
      // which equal the direct leg's at 16 procs/node). The single-hot-
      // volume workload touches exactly one named lock, so any gap vs the
      // direct RMA-RW series at the same placement is pure lock-manager
      // overhead — and the directory is O(1) local arithmetic with zero
      // virtual-time cost. The slot lock sits at its slot home, not at
      // rank 0 like the direct series (see slot_home_direct_ms).
      auto world = rma::SimWorld::create(env.sim_options_for(p));
      dht::DistributedHashTable table(*world, volume_for(p, ops, fw));
      lockspace::LockSpaceConfig space_config;
      space_config.backend = locks::Backend::kRmaRw;
      lockspace::LockSpace space(*world, space_config);
      const auto result =
          harness::run_dht_lockspace_bench(*world, table, space, config);
      report.add("RMA-RW/space " + suffix, p, "total_time_ms",
                 static_cast<double>(result.elapsed_ns) / 1e6);
      report.add("RMA-RW/space " + suffix, p, "drop_rate", result.drop_rate());
    }
  }
}

/// The like-with-like baseline of the directory-overhead check: a direct
/// RMA-RW anchored at the slot home the LockSpace leg's key (the volume
/// owner) resolves to. The space is built only to resolve that home; its
/// arena shifts window offsets, which cost no virtual time.
double slot_home_direct_ms(const BenchEnv& env, i32 p, double fw) {
  const harness::DhtBenchConfig config = bench_config(env, fw);
  auto world = rma::SimWorld::create(env.sim_options_for(p));
  dht::DistributedHashTable table(*world,
                                  volume_for(p, config.ops_per_proc, fw));
  lockspace::LockSpaceConfig space_config;
  space_config.backend = locks::Backend::kRmaRw;
  const lockspace::LockSpace space(*world, space_config);
  const lockspace::LockRef ref =
      space.resolve(static_cast<u64>(config.volume_owner));
  locks::RmaRw lock(*world, rw_params(world->topology(), /*tdc=*/16,
                                      /*tl_leaf=*/16, /*tl_root=*/16,
                                      /*tr=*/1000),
                    space.slot_home(ref.shard, ref.slot));
  const auto result =
      harness::run_dht_locked_bench(*world, table, lock, config);
  return static_cast<double>(result.elapsed_ns) / 1e6;
}

}  // namespace
}  // namespace rmalock::bench

int main(int argc, char** argv) {
  rmalock::harness::apply_bench_cli(argc, argv);
  using namespace rmalock;
  using namespace rmalock::bench;
  const BenchEnv env = BenchEnv::from_env();
  FigureReport report(
      "fig6", "DHT total time [ms] vs P (panels a-d: F_W = 20%, 5%, 2%, 0%)",
      "RMA-RW is fastest for F_W in {2%, 5%, 20%}; at F_W = 0% foMPI-RW "
      "and RMA-RW are comparable (Fig. 6)");
  run_panel(report, env, 0.20, "20%");
  run_panel(report, env, 0.05, "5%");
  run_panel(report, env, 0.02, "2%");
  run_panel(report, env, 0.00, "0%");
  const i32 pmax = env.ps.back();
  for (const char* fw : {"20%", "5%", "2%"}) {
    report.check(
        std::string("rma-rw fastest at F_W=") + fw,
        report.value(std::string("RMA-RW ") + fw, pmax, "total_time_ms") <
                report.value(std::string("foMPI-RW ") + fw, pmax,
                             "total_time_ms") &&
            report.value(std::string("RMA-RW ") + fw, pmax, "total_time_ms") <
                report.value(std::string("foMPI-A ") + fw, pmax,
                             "total_time_ms"),
        "RMA-RW vs both baselines at max P");
  }
  {
    // At F_W = 0% the paper reports foMPI-RW and RMA-RW as comparable; in
    // our NIC model the centralized reader FAO+ACC pair pays the full AMO
    // serialization at one rank, which splits the RW variants apart (see
    // docs/DESIGN.md §3.2). What the model *can* check: lock-protected
    // plain-get reads must not lose to the atomics variant, and the two
    // AMO-bound baselines must stay close to each other.
    const double rma = report.value("RMA-RW 0%", pmax, "total_time_ms");
    const double fompi_rw = report.value("foMPI-RW 0%", pmax, "total_time_ms");
    const double fompi_a = report.value("foMPI-A 0%", pmax, "total_time_ms");
    report.check("read-only: locked reads beat atomic reads",
                 rma <= fompi_a, "RMA-RW vs foMPI-A at F_W = 0%, max P");
    report.check("read-only: AMO-bound baselines comparable",
                 fompi_rw < 3.0 * fompi_a && fompi_a < 3.0 * fompi_rw,
                 "foMPI-RW vs foMPI-A at F_W = 0%, max P (within 3x)");
  }
  {
    // The volumes are provisioned for the worst-case insert count, so no
    // measured insert may hit a full overflow heap — a nonzero drop rate
    // here means volume_for() under-sizes the heap and the timing series
    // silently measures a partially-dropped workload.
    bool no_drops = true;
    for (const char* fw : {"20%", "5%", "2%", "0%"}) {
      for (const char* series : {"foMPI-A ", "foMPI-RW ", "RMA-RW ",
                                 "RMA-RW/space "}) {
        no_drops = no_drops &&
                   report.value(std::string(series) + fw, pmax, "drop_rate") ==
                       0.0;
      }
    }
    report.check("provisioned heaps drop nothing", no_drops,
                 "drop_rate == 0 for every series at max P");
  }
  {
    // LockSpace overhead: routing the same RMA-RW protocol through the
    // named-lock directory must not change the virtual-time result beyond
    // noise (the directory is local arithmetic; the slot lock runs the
    // identical listing with identical parameters at its slot home, so the
    // baseline is a direct lock at that same home).
    const double direct = slot_home_direct_ms(env, pmax, 0.05);
    report.add("RMA-RW@slot-home 5%", pmax, "total_time_ms", direct);
    const double space = report.value("RMA-RW/space 5%", pmax,
                                      "total_time_ms");
    report.check("lockspace directory adds no virtual-time overhead",
                 space <= 1.05 * direct && direct <= 1.05 * space,
                 "RMA-RW direct at the key's slot home vs through LockSpace "
                 "at F_W = 5%, max P (within 5%)");
  }
  report.print();
  return 0;
}
