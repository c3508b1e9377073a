// perfbench: runs one named workload of the repository benchmark and
// prints its result. perfbench/run.py builds this binary and calls it;
// see perfbench/README.md for the workloads and metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--git-sha <sha>] [--tiny]
//             [--corrupt-reference]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// whose metrics map each name the workload measured to its value: the
// end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
// BENCHMARK.json is the one catalogue of names and units; run.py checks
// the names against it and attaches the units. The exit code is 0 only
// when every output was correct.

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.h"

namespace perfbench {
namespace {

struct Workload {
  const char* name;
  void (*run)(const Args&, Outcome*);
};

constexpr Workload kWorkloads[] = {
    {"form_dense", RunFormDense},
    {"form_sparse", RunFormSparse},
    {"serve_flat_miss", RunServeFlatMiss},
    {"serve_tiered_hit", RunServeTieredHit},
    {"form_sharded", RunFormSharded},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] [--git-sha "
               "<sha>] [--tiny] [--corrupt-reference]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    }
    if (key == "--tiny") {
      args->tiny = true;
      continue;
    }
    if (key == "--corrupt-reference") {
      args->corrupt_reference = true;
      continue;
    }
    if (eq == std::string::npos) {
      if (i + 1 >= argc) {
        *error = "missing value for " + key;
        return false;
      }
      value = argv[++i];
    }
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      args->trace = value == "1";
      if (value != "0" && value != "1") {
        *error = "--trace takes 0 or 1";
        return false;
      }
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else if (key == "--git-sha") {
      args->git_sha = value;
    } else {
      *error = "unknown flag " + key;
      return false;
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      *error = "bad number for " + key + ": " + value;
      return false;
    }
  }
  if (args->workload.empty()) {
    *error = "--workload is required";
    return false;
  }
  if (!(args->seconds > 0)) {
    *error = "--seconds must be positive";
    return false;
  }
  return true;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) return Usage(error.c_str());
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return Usage("unknown workload");
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a '%s' build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);

  // The label every result carries, so a 1-core or Debug number is never
  // mistaken for the baseline.
  std::printf(
      "# label {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"seconds\": %s, \"trace\": %d, \"nproc\": %u, \"build_type\": "
      "\"%s\", \"compiler\": \"%s\", \"git_sha\": \"%s\"}\n",
      args.workload.c_str(), args.seed, JsonNumber(args.seconds).c_str(),
      args.trace ? 1 : 0, Nproc(), PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
      args.git_sha.c_str());
  std::fflush(stdout);

  Outcome out;
  workload->run(args, &out);
  if (!args.trace) out.Set("peak_rss_mb", PeakRssMb());

  std::string metrics;
  for (const auto& [name, value] : out.metrics) {
    if (!std::isfinite(value)) {
      out.Fail("metric " + name + " is not finite");
      continue;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": " + JsonNumber(value);
  }
  std::printf("# digest %016" PRIx64 "\n", out.digest.digest());
  for (const std::string& f : out.failures) {
    std::printf("# failure: %s\n", f.c_str());
  }
  const bool correct = out.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
              correct ? "true" : "false", std::max<uint64_t>(out.attempted, 1),
              out.failed, metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
