// ukc_e2e: runs one end-to-end workload and prints its result as one
// JSON line on standard output.
//
//   ukc_e2e --workload batch|local_search|stream|serve --seed N
//           --seconds S [--mode plain|trace|unit] [--trace-out FILE]
//           [--workdir DIR] [--smoke]
//
// plain: the end-to-end metrics. trace: spans around every layer call,
// written to --trace-out, and the per-layer metrics. unit: only the
// untraced wall time of one unit of work (the instrumentation-cost
// comparison runs it in a -DUKC_OBS=OFF build).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/fault_injection.h"
#include "harness.h"
#include "obs/metrics.h"
#include "workloads.h"

#ifndef UKC_E2E_BUILD_TYPE
#define UKC_E2E_BUILD_TYPE "unknown"
#endif

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "ukc_e2e: %s\nusage: ukc_e2e --workload batch|local_search|stream|"
               "serve --seed N --seconds S [--mode plain|trace|unit] "
               "[--trace-out FILE] [--workdir DIR] [--smoke]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string mode = "plain";
  std::string trace_out;
  e2e::RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      config.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--mode") {
      mode = value;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else if (flag == "--workdir") {
      config.workdir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (mode != "plain" && mode != "trace" && mode != "unit") {
    return Usage("--mode must be plain, trace or unit");
  }
  if (!(config.seconds > 0.0)) return Usage("--seconds must be positive");

  // Timings from an unoptimized build say nothing about the library.
  if (std::string(UKC_E2E_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "ukc_e2e: refusing to record from a %s build\n",
                 UKC_E2E_BUILD_TYPE);
    return 2;
  }

  e2e::Tracer tracer;
  if (mode == "trace") config.tracer = &tracer;
  config.unit_only = mode == "unit";

  e2e::Result result;
  if (workload == "batch") {
    e2e::RunBatch(config, &result);
  } else if (workload == "local_search") {
    e2e::RunLocalSearch(config, &result);
  } else if (workload == "stream") {
    e2e::RunStream(config, &result);
  } else if (workload == "serve") {
    e2e::RunServe(config, &result);
  } else {
    return Usage("unknown --workload");
  }

  if (!trace_out.empty() && config.tracer != nullptr &&
      !tracer.WriteJson(trace_out)) {
    std::fprintf(stderr, "ukc_e2e: cannot write %s\n", trace_out.c_str());
    return 2;
  }

  result.provenance = {
      {"build_type", UKC_E2E_BUILD_TYPE},
      {"compiler", __VERSION__},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"UKC_OBS", ukc::obs::kEnabled ? "ON" : "OFF"},
      {"UKC_FAULT_INJECTION", UKC_FAULT_INJECTION ? "ON" : "OFF"},
      {"seed", std::to_string(config.seed)},
      {"workload", workload},
      {"mode", mode},
  };
  std::printf("%s\n", result.ToJson().c_str());
  for (const std::string& failure : result.check_failures) {
    std::fprintf(stderr, "ukc_e2e: check failed: %s\n", failure.c_str());
  }
  return result.correct ? 0 : 1;
}
