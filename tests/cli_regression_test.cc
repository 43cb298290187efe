// End-to-end regressions against the built ukc_cli binary (path baked
// in by CMake as UKC_CLI_BIN). These pin the CLI's *process contract* —
// exit codes, stderr wording, file side effects — which unit tests on
// the library can't see:
//   - --metrics-out to an unopenable path fails FAST with the OS error
//     on stderr and a non-zero exit, instead of running the whole
//     workload and then silently dropping the export (the bug: the
//     file was opened only after the run finished).
//   - The happy path writes a non-empty export in the format the
//     extension picks (.json = JSON, else Prometheus text).
//   - --serve --window drives the sliding-window serving path and
//     reports the expiry counters.
//   - Out-of-range generator flags (negative sizes, k < 1, zero n/z/dim,
//     negative spread) and --threads / --retry-attempts values outside
//     their int range fail with an INVALID_ARGUMENT status and exit 1
//     instead of aborting the process or silently running a wrapped
//     value.
//   - The report's stage rows and the --metrics-out export read the
//     per-stage times from the metrics registry, even at --threads 1.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/metrics.h"

#ifndef UKC_CLI_BIN
#error "UKC_CLI_BIN must be defined to the built ukc_cli path"
#endif

namespace ukc {
namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved, or stderr alone.
};

RunResult RunCli(const std::string& arguments, bool stderr_only = false) {
  const std::string command = std::string(UKC_CLI_BIN) + " " + arguments +
                              (stderr_only ? " 2>&1 >/dev/null" : " 2>&1");
  RunResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer;
  size_t read = 0;
  while ((read = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    result.output.append(buffer.data(), read);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// Tiny but real workloads. The serve session meters into the default
// registry (query latency histograms, churn counters), so its export
// has content; the plain solve run is the cheapest way to reach the
// exit path.
const char kTinyRun[] = "--generate clustered --n 30 --z 2 --dim 2 --k 2";
const char kTinyServeRun[] =
    "--serve --serve-tenants 2 --serve-ops 200 --k 2 --dim 2 --seed 7 "
    "--threads 1";

TEST(CliRegressionTest, UnopenableMetricsPathFailsFastWithOsError) {
  const std::string bad = "/nonexistent-ukc-dir/metrics.json";
  const auto result = RunCli(std::string(kTinyRun) + " --metrics-out " + bad);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("cannot open metrics file"), std::string::npos)
      << result.output;
  // The OS error is part of the message (ENOENT here).
  EXPECT_NE(result.output.find("No such file or directory"), std::string::npos)
      << result.output;
  std::ifstream check(bad);
  EXPECT_FALSE(check.good()) << "a partial metrics file was left behind";
}

TEST(CliRegressionTest, MetricsOutWritesJsonOrPrometheusByExtension) {
  const std::string json_path = TempPath("cli_metrics.json");
  const std::string prom_path = TempPath("cli_metrics.prom");
  std::remove(json_path.c_str());
  std::remove(prom_path.c_str());

  const auto json_run =
      RunCli(std::string(kTinyServeRun) + " --metrics-out " + json_path);
  EXPECT_EQ(json_run.exit_code, 0) << json_run.output;
  std::ifstream json_file(json_path);
  ASSERT_TRUE(json_file.good());
  std::stringstream json_text;
  json_text << json_file.rdbuf();
  EXPECT_EQ(json_text.str().rfind("{\"metrics\":", 0), 0u) << json_text.str();
  if (obs::kEnabled) {
    EXPECT_NE(json_text.str().find("ukc_serve"), std::string::npos);
  } else {
    EXPECT_EQ(json_text.str(), "{\"metrics\":[]}");
  }

  const auto prom_run =
      RunCli(std::string(kTinyServeRun) + " --metrics-out " + prom_path);
  EXPECT_EQ(prom_run.exit_code, 0) << prom_run.output;
  std::ifstream prom_file(prom_path);
  ASSERT_TRUE(prom_file.good());
  std::stringstream prom_text;
  prom_text << prom_file.rdbuf();
  if (obs::kEnabled) {
    EXPECT_NE(prom_text.str().find("# TYPE"), std::string::npos)
        << prom_text.str();
  } else {
    EXPECT_EQ(prom_text.str().rfind("# ukc observability compiled out", 0),
              0u)
        << prom_text.str();
  }

  std::remove(json_path.c_str());
  std::remove(prom_path.c_str());
}

TEST(CliRegressionTest, StageTimesAreReadFromTheRegistry) {
  if (!obs::kEnabled) GTEST_SKIP() << "built with UKC_OBS=OFF";
  const std::string prom_path = TempPath("cli_stages.prom");
  std::remove(prom_path.c_str());
  const auto batch = RunCli(
      "--generate clustered --n 200 --z 2 --dim 2 --k 4 --threads 1 "
      "--unassigned --metrics-out " + prom_path);
  EXPECT_EQ(batch.exit_code, 0) << batch.output;
  std::ifstream prom_file(prom_path);
  ASSERT_TRUE(prom_file.good());
  std::stringstream prom_text;
  prom_text << prom_file.rdbuf();
  for (const char* stage : {"surrogate", "cluster", "assign", "evaluate"}) {
    const std::string series = std::string("ukc_solve_stage_seconds_count") +
                               "{stage=\"" + stage + "\"} 1\n";
    EXPECT_NE(prom_text.str().find(series), std::string::npos)
        << series << prom_text.str();
  }
  for (const char* row :
       {"surrogate ms", "clustering ms", "assignment ms", "evaluation ms"}) {
    EXPECT_NE(batch.output.find(row), std::string::npos) << batch.output;
  }
  // The exact sweeps say what the threshold filter skipped: the
  // assigned and unassigned sweeps each see all 400 events.
  EXPECT_NE(prom_text.str().find("ukc_sweep_events_total 800\n"),
            std::string::npos)
      << prom_text.str();
  EXPECT_NE(prom_text.str().find("ukc_sweep_tail_events_total "),
            std::string::npos)
      << prom_text.str();
  std::remove(prom_path.c_str());

  const auto stream = RunCli(
      "--stream --generate clustered --n 200 --z 2 --dim 2 --k 4 "
      "--threads 1");
  EXPECT_EQ(stream.exit_code, 0) << stream.output;
  for (const char* row : {"ingest ms", "solve ms", "verify ms"}) {
    EXPECT_NE(stream.output.find(row), std::string::npos) << stream.output;
  }
}

TEST(CliRegressionTest, ServeWindowDrivesExpiryAndReportsIt) {
  const auto result = RunCli(
      "--serve --serve-tenants 2 --serve-ops 400 --k 2 --dim 2 "
      "--window 16 --seed 7 --threads 1");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("window points"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("points expired"), std::string::npos)
      << result.output;
  // A negative window is rejected up front.
  const auto bad = RunCli("--serve --window -1");
  EXPECT_NE(bad.exit_code, 0);
}

TEST(CliRegressionTest, OutOfRangeGeneratorFlagsFailWithInvalidArgument) {
  const char* const kBadFlags[] = {
      "--k -1", "--n -5", "--z -1", "--dim -2",
      "--z 0",  "--dim 0", "--spread -1",
      // Values that wrapped to 1 / -1 in the int casts behind them.
      "--threads 4294967297", "--threads -4294967297",
      "--retry-attempts 4294967297",
  };
  for (const char* flags : kBadFlags) {
    const auto result = RunCli(
        std::string("--generate clustered --n 30 --z 2 --dim 2 --k 2 ") + flags,
        /*stderr_only=*/true);
    EXPECT_EQ(result.exit_code, 1) << flags << ": " << result.output;
    EXPECT_NE(result.output.find("INVALID_ARGUMENT"), std::string::npos)
        << flags << ": " << result.output;
  }
}

}  // namespace
}  // namespace ukc
