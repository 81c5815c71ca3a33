// Benchmark driver: runs one workload and prints one JSON line.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --work-dir DIR
//
// Workloads: archive-sz, archive-zfp, service-mixed (see README.md).  With
// --trace 0 the line carries the end-to-end metrics, with --trace 1 the
// per-layer metrics of the layers the workload exercises.  The line also
// records the environment (nproc, pool threads, effective cores, field
// bytes next to the last-level cache size) and the failures by kind.
// perfbench/run.py builds this program, runs it and relays the result.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.hpp"

namespace {

using perfbench::Metric;

void append_number(std::string& out, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g",
                std::isfinite(value) ? value : 0.0);
  out += buffer;
}

void append_metrics(std::string& out, const std::vector<Metric>& metrics,
                    bool with_unit) {
  out += "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": ";
    if (with_unit) {
      out += "{\"value\": ";
      append_number(out, metrics[i].value);
      out += ", \"unit\": \"" + metrics[i].unit + "\"}";
    } else {
      append_number(out, metrics[i].value);
    }
  }
  out += "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") options.workload = value;
    else if (flag == "--seed") options.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") options.seconds = std::atof(value.c_str());
    else if (flag == "--trace") options.trace = value == "1";
    else if (flag == "--work-dir") options.work_dir = value;
    else return usage();
  }
  if (options.workload.empty() || options.work_dir.empty() ||
      !(options.seconds > 0))
    return usage();

  std::filesystem::create_directories(options.work_dir);
  perfbench::Environment env = perfbench::probe_environment();
  perfbench::RunResult result;
  try {
    if (options.workload == "archive-sz")
      result = perfbench::run_archive(options, "sz", env);
    else if (options.workload == "archive-zfp")
      result = perfbench::run_archive(options, "zfp", env);
    else if (options.workload == "service-mixed")
      result = perfbench::run_service(options, env);
    else
      return usage();
  } catch (...) {
    // Failures inside ops are counted, never thrown; reaching here means
    // the benchmark itself could not run.
    std::fprintf(stderr, "perfbench_driver: %s\n",
                 perfbench::current_exception_message().c_str());
    return 1;
  }

  const bool wrong_output = result.failures.by_kind.count("check") > 0;
  std::string line = "{\"correct\": ";
  line += wrong_output ? "false" : "true";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failures.total());
  line += ", \"failures\": {";
  bool first = true;
  for (const auto& [kind, count] : result.failures.by_kind) {
    line += (first ? "\"" : ", \"") + kind + "\": " + std::to_string(count);
    first = false;
  }
  line += "}, \"metrics\": ";
  append_metrics(line, result.metrics, true);
  line += ", \"notes\": ";
  append_metrics(line, result.notes, false);
  line += ", \"env\": ";
  append_metrics(line,
                 {{"nproc", static_cast<double>(env.nproc), ""},
                  {"pool_threads", static_cast<double>(env.pool_threads), ""},
                  {"effective_cores", env.effective_cores, ""},
                  {"llc_bytes", static_cast<double>(env.llc_bytes), ""},
                  {"field_bytes", static_cast<double>(env.field_bytes), ""}},
                 false);
  line += "}\n";
  // Written and flushed before main returns, so a crash during static
  // teardown cannot lose the result; run.py reports such an exit.
  std::fputs(line.c_str(), stdout);
  std::fflush(stdout);
  return 0;
}
