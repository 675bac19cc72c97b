// End-to-end benchmark of the PlanetP reproduction. One binary, three
// workloads (see perfbench/README.md):
//
//   planetp_perfbench --workload <query_live|publish_mix|churn_sim>
//                     --seed <n> --seconds <s> --trace <0|1> [--smoke 1]
//                     [--out <dir>]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are the
// workload's end-to-end metrics; with --trace 1 they are the per-layer
// metrics of the traced run. The exit code is 0 only when every correctness
// check passed.

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>

#include "harness.hpp"

namespace {

using perfbench::Args;

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--smoke") {
      args.smoke = std::strcmp(value, "0") != 0;
    } else if (key == "--out") {
      args.out_dir = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return false;
    }
  }
  return !args.workload.empty() && args.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <query_live|publish_mix|churn_sim> --seed <n> "
                 "--seconds <s> --trace <0|1> [--smoke 1] [--out <dir>]\n",
                 argv[0]);
    return 2;
  }

  perfbench::Report report;
  perfbench::Tracer tracer(args.trace);
  int rc = 0;
  try {
    if (args.workload == "query_live") {
      rc = perfbench::run_query_live(args, report, tracer);
    } else if (args.workload == "publish_mix") {
      rc = perfbench::run_publish_mix(args, report, tracer);
    } else if (args.workload == "churn_sim") {
      rc = perfbench::run_churn_sim(args, report, tracer);
    } else {
      std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s failed: %s\n", args.workload.c_str(), e.what());
    return 3;
  }
  if (args.trace) perfbench::complete_per_layer(report);

  const std::string env = perfbench::environment_json(args);
  std::string metrics;
  for (const perfbench::Metric& m : report.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + perfbench::fmt(m.value) + ", \"unit\": \"" +
               m.unit + "\"}";
  }
  const std::string result = std::string("{\"correct\": ") + (report.correct ? "true" : "false") +
                             ", \"attempted\": " + std::to_string(report.attempted) +
                             ", \"failed\": " + std::to_string(report.failed) +
                             ", \"metrics\": {" + metrics + "}}";

  ::mkdir(args.out_dir.c_str(), 0755);
  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + (args.trace ? "-trace" : "");
  {
    std::ofstream out(stem + ".json");
    out << "{\"env\": " << env << ", \"result\": " << result << "}\n";
  }
  if (args.trace) {
    tracer.write(stem + "-spans.jsonl");
    std::ofstream out(stem + "-layers.txt");
    for (const std::string& line : report.notes) out << line << "\n";
  }

  for (const std::string& line : report.notes) std::printf("%s\n", line.c_str());
  std::printf("env: %s\n", env.c_str());
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  if (!report.correct && rc == 0) rc = 1;
  return rc;
}
