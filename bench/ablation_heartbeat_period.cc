// Ablation: heartbeat probing cadence.
//
// The paper inserts a heartbeat row "periodically"; this ablation varies the
// period to show (a) the measured relative delay is robust to the probe
// cadence and (b) the probe's own overhead is negligible until the cadence
// becomes extreme.

#include <cstdio>

#include "bench_util.h"
#include "common/str_util.h"
#include "common/table_writer.h"
#include "common/time_types.h"
#include "harness/experiment.h"

int main() {
  using namespace clouddb;
  bench::PrintHeader(
      "Ablation: heartbeat period (1 slave, 100 users, 50/50, same zone)");

  TableWriter table({"heartbeat period", "heartbeats", "throughput (ops/s)",
                     "avg relative delay (ms)"});
  for (SimDuration period : {Millis(250), Millis(1000), Millis(5000)}) {
    harness::ExperimentConfig config = bench::FiftyFiftyBase();
    config.num_slaves = 1;
    config.num_users = 100;
    config.heartbeat.period = period;
    config.seed = 1618;
    const harness::ExperimentResult result = bench::RunOrExit(config);
    std::fprintf(stderr, "  [run] period=%s done\n",
                 FormatDuration(period).c_str());
    table.AddRow({FormatDuration(period),
                  StrFormat("%lld", static_cast<long long>(
                                        result.heartbeats_issued)),
                  StrFormat("%.1f", result.benchmark.throughput_ops),
                  StrFormat("%.1f", result.mean_relative_delay_ms)});
  }
  std::printf("%s", table.ToAscii().c_str());
  return 0;
}
