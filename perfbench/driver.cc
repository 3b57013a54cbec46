// perfbench_driver: one measurement of the end-to-end benchmark per process.
//
//   perfbench_driver round --workload W --seed N [--smoke]
//       runs the workload's sweep once through harness::RunSweep (serial)
//       and reports host wall/CPU seconds, peak RSS, and every cell's
//       simulated outputs and property checks;
//   perfbench_driver setup --workload W --seed N
//       runs harness::RunExperiment on the workload's largest cell with
//       every phase at zero length and reports its host seconds;
//   perfbench_driver trace --workload W --seed N [--smoke]
//       runs every cell untraced through harness::RunExperiment and again
//       rebuilt with timed steps and statement replays, and reports the
//       per-layer metrics.
//
// Each mode prints one JSON object as its last line and exits 1 when a
// check fails. perfbench/run.py builds this binary, runs it, and turns the
// per-process lines into the benchmark's result.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/str_util.h"
#include "harness/experiment.h"
#include "harness/sweep.h"
#include "traced_cell.h"
#include "workloads.h"

namespace clouddb::perfbench {
namespace {

/// Host CPU seconds (user + sys) of this process so far.
double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Peak resident set size (VmHWM) of this process, MB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out + "\"";
}

std::string JsonList(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonString(items[i]);
  }
  return out + "]";
}

struct Args {
  std::string mode;
  std::string workload;
  uint64_t seed = 42;
  bool smoke = false;
};

/// Simulated outputs, check failures and operation counts of a workload's
/// cells.
struct SweepOutcome {
  std::vector<std::string> rows;
  std::vector<std::string> failures;
  size_t cells = 0;
  int64_t cells_failed = 0;
  int64_t ops_completed = 0;
  int64_t ops_failed = 0;
};

SweepOutcome Summarize(const Workload& workload, uint64_t seed,
                       const harness::SweepResult& sweep) {
  SweepOutcome outcome;
  const std::vector<harness::ExperimentConfig> planned =
      PlanCells(workload.sweep);
  const std::vector<harness::SweepCell>& cells = sweep.cells();
  outcome.cells = planned.size();
  if (cells.size() != planned.size()) {
    outcome.failures.push_back("sweep returned a different number of cells");
    return outcome;
  }
  for (size_t i = 0; i < planned.size(); ++i) {
    const harness::SweepCell& cell = cells[i];
    if (cell.slaves != planned[i].num_slaves ||
        cell.users != planned[i].num_users) {
      outcome.failures.push_back("sweep cells out of grid order");
      ++outcome.cells_failed;
      continue;
    }
    outcome.rows.push_back(
        OutputRow(workload.name, seed, planned[i], cell.result));
    std::vector<std::string> failures = CheckCell(planned[i], cell.result);
    if (!failures.empty()) ++outcome.cells_failed;
    for (std::string& f : failures) outcome.failures.push_back(std::move(f));
    outcome.ops_completed += cell.result.benchmark.completed_ops;
    outcome.ops_failed += cell.result.benchmark.failed_ops;
  }
  return outcome;
}

std::string OutcomeFields(const SweepOutcome& outcome) {
  return StrFormat(
      "\"cells\":%zu,\"cells_failed\":%lld,\"ops_completed\":%lld,"
      "\"ops_failed\":%lld,\"rows\":%s,\"failures\":%s",
      outcome.cells, static_cast<long long>(outcome.cells_failed),
      static_cast<long long>(outcome.ops_completed),
      static_cast<long long>(outcome.ops_failed),
      JsonList(outcome.rows).c_str(), JsonList(outcome.failures).c_str());
}

int RunRound(const Args& args, const Workload& workload) {
  const double wall0 = HostSeconds();
  const double cpu0 = CpuSeconds();
  auto sweep = harness::RunSweep(workload.sweep);
  const double wall = HostSeconds() - wall0;
  const double cpu = CpuSeconds() - cpu0;
  if (!sweep.ok()) {
    std::printf("{\"mode\":\"round\",\"failures\":%s}\n",
                JsonList({"sweep failed: " + sweep.status().ToString()})
                    .c_str());
    return 1;
  }
  SweepOutcome outcome = Summarize(workload, args.seed, *sweep);
  std::printf(
      "{\"mode\":\"round\",\"wall_s\":%.9f,\"cpu_s\":%.9f,"
      "\"peak_rss_mb\":%.6f,%s}\n",
      wall, cpu, PeakRssMb(), OutcomeFields(outcome).c_str());
  return outcome.failures.empty() ? 0 : 1;
}

int RunSetup(const Args& args, const Workload& workload) {
  const harness::ExperimentConfig config = SetupConfig(workload, args.seed);
  const double wall0 = HostSeconds();
  auto result = harness::RunExperiment(config);
  const double wall = HostSeconds() - wall0;
  std::vector<std::string> failures;
  if (!result.ok()) {
    failures.push_back("set-up run failed: " + result.status().ToString());
  } else if (!result->converged || !result->fully_replicated) {
    failures.push_back("set-up run not converged after drain");
  }
  std::printf("{\"mode\":\"setup\",\"setup_s\":%.9f,\"failures\":%s}\n", wall,
              JsonList(failures).c_str());
  return failures.empty() ? 0 : 1;
}

int RunTrace(const Args& args, const Workload& workload) {
  // Every cell runs twice: untraced through harness::RunExperiment and
  // traced through RunTracedCell, alternating which goes first so process
  // warm-up and host drift fall on both sides alike. The untraced run is the
  // reference for the traced cell's outputs and for the tracing overhead.
  SweepOutcome outcome;
  Ledger ledger;
  double untraced_wall = 0.0;
  const std::vector<harness::ExperimentConfig> planned =
      PlanCells(workload.sweep);
  outcome.cells = planned.size();
  for (size_t i = 0; i < planned.size(); ++i) {
    const harness::ExperimentConfig& config = planned[i];
    std::vector<std::string> failures;
    std::optional<Result<harness::ExperimentResult>> untraced;
    std::optional<Result<harness::ExperimentResult>> traced;
    auto run_untraced = [&] {
      const double wall0 = HostSeconds();
      untraced.emplace(harness::RunExperiment(config));
      untraced_wall += HostSeconds() - wall0;
    };
    auto run_traced = [&] {
      traced.emplace(RunTracedCell(config, &ledger, &failures));
    };
    if (i % 2 == 0) {
      run_untraced();
      run_traced();
    } else {
      run_traced();
      run_untraced();
    }

    const std::string where =
        StrFormat("slaves=%d users=%d: ", config.num_slaves, config.num_users);
    const size_t failures_before = outcome.failures.size();
    if (!untraced->ok()) {
      outcome.failures.push_back(where + "RunExperiment failed: " +
                                 untraced->status().ToString());
    } else {
      const harness::ExperimentResult& reference = untraced->value();
      outcome.rows.push_back(
          OutputRow(workload.name, args.seed, config, reference));
      outcome.ops_completed += reference.benchmark.completed_ops;
      outcome.ops_failed += reference.benchmark.failed_ops;
      for (std::string& f : CheckCell(config, reference)) {
        outcome.failures.push_back(std::move(f));
      }
      if (!traced->ok()) {
        outcome.failures.push_back(where + "traced cell failed: " +
                                   traced->status().ToString());
      } else if (OutputRow(workload.name, args.seed, config,
                           traced->value()) != outcome.rows.back() ||
                 traced->value().converged != reference.converged ||
                 traced->value().fully_replicated !=
                     reference.fully_replicated) {
        outcome.failures.push_back(
            where + "traced cell outputs differ from harness::RunExperiment");
      }
    }
    for (std::string& f : failures) outcome.failures.push_back(where + f);
    if (outcome.failures.size() > failures_before) ++outcome.cells_failed;
  }

  auto per_unit_us = [&](const std::string& metric) {
    const double n = ledger[metric + ".n"];
    return n > 0 ? ledger[metric + ".s"] / n * 1e6 : 0.0;
  };
  // A traced cell's own cost: every timed step from deployment to teardown,
  // which is what RunExperiment also pays, without the statement replays.
  double traced_wall = 0.0;
  for (const char* step :
       {"harness.build_s", "harness.load_s", "sim.run_s", "sim.drain_s",
        "harness.report_s", "harness.check_s", "harness.teardown_s"}) {
    traced_wall += ledger[step];
  }
  const double run_s = ledger["sim.run_s"];
  const double drain_s = ledger["sim.drain_s"];
  const std::vector<std::pair<std::string, std::pair<double, const char*>>>
      metrics = {
          {"harness.build_s", {ledger["harness.build_s"], "s"}},
          {"harness.load_s", {ledger["harness.load_s"], "s"}},
          {"harness.load_statements",
           {ledger["harness.load_statements"], "count"}},
          {"harness.check_s", {ledger["harness.check_s"], "s"}},
          {"harness.report_s", {ledger["harness.report_s"], "s"}},
          {"harness.teardown_s", {ledger["harness.teardown_s"], "s"}},
          {"sim.events", {ledger["sim.events"], "count"}},
          {"sim.run_s", {run_s, "s"}},
          {"sim.drain_s", {drain_s, "s"}},
          {"sim.events_per_s",
           {ledger["sim.events"] / (run_s + drain_s), "events/s"}},
          {"db.read.view_us", {per_unit_us("db.read.view_us"), "us"}},
          {"db.read.browse_us", {per_unit_us("db.read.browse_us"), "us"}},
          {"db.read.search_us", {per_unit_us("db.read.search_us"), "us"}},
          {"db.write_us", {per_unit_us("db.write_us"), "us"}},
          {"db.queries", {ledger["db.queries"], "count"}},
          {"db.statement_cache.hits",
           {ledger["db.statement_cache.hits"], "count"}},
          {"db.statement_cache.misses",
           {ledger["db.statement_cache.misses"], "count"}},
          {"db.vec.rows_filtered", {ledger["db.vec.rows_filtered"], "count"}},
          {"db.vec.scalar_fallbacks",
           {ledger["db.vec.scalar_fallbacks"], "count"}},
          {"repl.apply.statement_us",
           {per_unit_us("repl.apply.statement_us"), "us"}},
          {"repl.events_applied", {ledger["repl.events_applied"], "count"}},
          {"repl.binlog.events", {ledger["repl.binlog.events"], "count"}},
          {"repl.apply.writeset_us",
           {per_unit_us("repl.apply.writeset_us"), "us"}},
          {"repl.codec_us", {per_unit_us("repl.codec_us"), "us"}},
          {"repl.apply.writeset", {ledger["repl.apply.writeset"], "count"}},
          {"repl.apply.fallback", {ledger["repl.apply.fallback"], "count"}},
          {"repl.binlog.batches", {ledger["repl.binlog.batches"], "count"}},
          {"net.messages", {ledger["net.messages"], "count"}},
          {"net.bytes", {ledger["net.bytes"], "count"}},
          {"client.reads_routed", {ledger["client.reads_routed"], "count"}},
          {"client.writes_routed", {ledger["client.writes_routed"], "count"}},
          {"client.route_cache.hits",
           {ledger["client.route_cache.hits"], "count"}},
          {"cloudstone.generate_us",
           {per_unit_us("cloudstone.generate_us"), "us"}},
          {"cloudstone.ops_issued", {ledger["cloudstone.ops_issued"], "count"}},
          {"cloud.ntp.syncs", {ledger["cloud.ntp.syncs"], "count"}},
          {"trace.overhead_s",
           {traced_wall - untraced_wall, "s"}},
      };

  std::string fields;
  for (const auto& [name, value] : metrics) {
    if (!fields.empty()) fields += ",";
    fields += StrFormat("\"%s\":{\"value\":%.9g,\"unit\":\"%s\"}",
                        name.c_str(), value.first, value.second);
  }
  std::printf("{\"mode\":\"trace\",\"metrics\":{%s},%s}\n", fields.c_str(),
              OutcomeFields(outcome).c_str());
  return outcome.failures.empty() ? 0 : 1;
}

int Main(int argc, char** argv) {
  Args args;
  if (argc > 1) args.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
    } else if (i + 1 < argc && flag == "--workload") {
      args.workload = argv[++i];
    } else if (i + 1 < argc && flag == "--seed") {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", flag.c_str());
      return 2;
    }
  }
  std::optional<Workload> workload =
      MakeWorkload(args.workload, args.seed, args.smoke);
  if (!workload.has_value()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (args.mode == "round") return RunRound(args, *workload);
  if (args.mode == "setup") return RunSetup(args, *workload);
  if (args.mode == "trace") return RunTrace(args, *workload);
  std::fprintf(stderr, "usage: perfbench_driver round|setup|trace ...\n");
  return 2;
}

}  // namespace
}  // namespace clouddb::perfbench

int main(int argc, char** argv) {
  return clouddb::perfbench::Main(argc, argv);
}
