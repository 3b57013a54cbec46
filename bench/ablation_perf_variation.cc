// Ablation: instance performance variation (paper §IV-A).
//
// "The performance variation of instances is another factor that needs to be
// considered when deploying database in the cloud... poor-performing
// instances are launched randomly and can largely affect application
// performance." (The paper observed a 1-slave different-zone deployment
// underperform a different-region one purely because of the CPU lottery.)
//
// We rerun the same Fig. 2 point (1 slave, 125 users, same zone) across
// launch seeds, with the CPU-speed coefficient of variation at 0 and at the
// measured 0.21 (Schad et al.).

#include <cstdio>

#include "bench_util.h"
#include "common/stats.h"
#include "common/str_util.h"
#include "common/table_writer.h"
#include "harness/experiment.h"

int main() {
  using namespace clouddb;
  bench::PrintHeader(
      "Ablation: instance performance variation (1 slave, 125 users, 50/50)");

  TableWriter table({"cpu speed CoV", "runs", "mean tput", "min tput",
                     "max tput", "stddev", "spread (max/min)"});
  for (double cov : {0.0, 0.21}) {
    Sample throughputs;
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      harness::ExperimentConfig config = bench::FiftyFiftyBase();
      config.num_slaves = 1;
      config.num_users = 125;
      config.cloud.cpu_speed_cov = cov;
      config.seed = seed * 7919;
      const harness::ExperimentResult result = bench::RunOrExit(config);
      std::fprintf(stderr, "  [run] cov=%.2f seed=%llu -> %.1f ops/s\n", cov,
                   static_cast<unsigned long long>(seed),
                   result.benchmark.throughput_ops);
      throughputs.Add(result.benchmark.throughput_ops);
    }
    table.AddRow({StrFormat("%.2f", cov),
                  StrFormat("%zu", throughputs.count()),
                  StrFormat("%.1f", throughputs.Mean()),
                  StrFormat("%.1f", throughputs.Min()),
                  StrFormat("%.1f", throughputs.Max()),
                  StrFormat("%.2f", throughputs.StdDev()),
                  StrFormat("%.2fx", throughputs.Max() /
                                         std::max(0.001, throughputs.Min()))});
  }
  std::printf("%s", table.ToAscii().c_str());
  std::printf(
      "\nExpected: with CoV 0.21 the same deployment's throughput varies "
      "across launches\n(the CPU lottery); with CoV 0 it is stable. "
      "Validate instances before deploying.\n");
  return 0;
}
