// Ablation: row-based writeset replication + group shipping vs the paper's
// statement-based binlog, on the Fig. 5 staleness setup (50/50 mix, 2
// slaves, same zone). Statement apply re-runs every write's full SQL cost
// on each slave (apply_factor x the statement's nominal cost); writeset
// apply charges only the row-image delta, so the slave-side apply budget —
// the resource whose exhaustion drives Fig. 5's delay explosion — shrinks
// by roughly an order of magnitude. Group shipping additionally collapses
// per-event dump messages into one send per batch.

#include <cstdio>

#include "bench_util.h"
#include "common/str_util.h"
#include "common/table_writer.h"
#include "harness/experiment.h"

int main() {
  using namespace clouddb;
  bench::PrintHeader(
      "Ablation: statement vs row-based replication "
      "(2 slaves, same zone, 50/50)");

  struct Mode {
    const char* name;
    bool row_based;
    int batch_size;
  };
  const Mode kModes[] = {
      {"statement", false, 1},
      {"row-based, batch 1", true, 1},
      {"row-based, batch 64", true, 64},
  };

  TableWriter table({"users", "mode", "throughput (ops/s)",
                     "avg relative delay (ms)", "writeset applies",
                     "fallback applies", "batches shipped"});
  for (int users : {100, 150, 200}) {
    for (const Mode& mode : kModes) {
      harness::ExperimentConfig config = bench::FiftyFiftyBase();
      config.location = harness::LocationConfig::kSameZone;
      config.num_slaves = 2;
      config.num_users = users;
      config.row_based_repl = mode.row_based;
      config.binlog_batch_size = mode.batch_size;
      config.seed = 314;
      const harness::ExperimentResult result = bench::RunOrExit(config);
      std::fprintf(stderr, "  [run] %d users, %s done\n", users, mode.name);
      table.AddRow({StrFormat("%d", users), mode.name,
                    StrFormat("%.1f", result.benchmark.throughput_ops),
                    StrFormat("%.1f", result.mean_relative_delay_ms),
                    StrFormat("%lld", static_cast<long long>(
                                          result.benchmark.writeset_applies)),
                    StrFormat("%lld", static_cast<long long>(
                                          result.benchmark.fallback_applies)),
                    StrFormat("%lld", static_cast<long long>(
                                          result.benchmark.binlog_batches))});
    }
  }
  std::printf("%s", table.ToAscii().c_str());
  std::printf(
      "\nExpected: with statement apply the slaves saturate first and the\n"
      "relative delay explodes with the workload (Fig. 5's shape); writeset\n"
      "apply cuts the per-event slave cost ~10x, deferring saturation and\n"
      "collapsing the delay at the same user counts. Batching barely moves\n"
      "the simulated delay further (the network was not the bottleneck) but\n"
      "divides dump-thread sends by the batch size.\n");
  return 0;
}
