// Shared helpers for the seven table/figure reproduction binaries
// (Tables 1-3, Fig. 2a-d, the policy ablation, the extension experiments).
// micro_compat does not use them, and speed is measured by the repository
// benchmark (perfbench/README.md), not by these binaries.
//
// Every binary accepts:
//   --datasets=slashdot,epinions,wikipedia   which datasets to run
//   --scale=<0..1>       scale factor for the large synthetic datasets
//   --seed=<n>           dataset + experiment seed
//   --graph=<path>       use a real signed edge list instead (with
//                        --num_skills=<n> Zipf skills)
//   --csv                additionally emit CSV rows (Tables 1-3, Fig. 2)
//
// Standard output carries the paper's results alone; every timing goes to
// standard error. At --scale=0.02 --datasets=slashdot the stdout of each
// binary is pinned byte for byte by tests/golden/ (see tests/CMakeLists.txt
// for the rule on changing it).

#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/data/datasets.h"
#include "src/util/flags.h"

namespace tfsn::bench {

/// Splits a comma-separated list.
inline std::vector<std::string> SplitCsv(const std::string& s) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t comma = s.find(',', start);
    if (comma == std::string::npos) comma = s.size();
    if (comma > start) out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

/// Resolves the datasets requested on the command line. `default_scale`
/// applies to epinions/wikipedia only — slashdot is tiny and always full
/// size — unless --scale overrides it.
inline std::vector<Dataset> LoadDatasets(const Flags& flags,
                                         double default_scale,
                                         const std::string& default_names) {
  std::vector<Dataset> out;
  DatasetOptions options;
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 2020));

  if (flags.Has("graph")) {
    auto ds = LoadDatasetFromEdgeList(
        flags.GetString("graph"),
        static_cast<uint32_t>(flags.GetInt("num_skills", 500)), options);
    ds.status().CheckOK();
    out.push_back(std::move(ds).ValueOrDie());
    return out;
  }

  double scale = flags.GetDouble("scale", default_scale);
  for (const std::string& name :
       SplitCsv(flags.GetString("datasets", default_names))) {
    DatasetOptions opt = options;
    opt.scale = name == "slashdot" ? 1.0 : scale;
    auto ds = MakeDatasetByName(name, opt);
    ds.status().CheckOK();
    out.push_back(std::move(ds).ValueOrDie());
  }
  return out;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Parses --threads as a comma-separated list of worker counts (a sweep);
/// malformed or empty entries fall back to {1} with a warning rather than
/// throwing out of main.
inline std::vector<uint32_t> ThreadSweepOf(const Flags& flags) {
  std::vector<uint32_t> counts;
  for (const std::string& tok : SplitCsv(flags.GetString("threads", "1"))) {
    char* end = nullptr;
    unsigned long v = std::strtoul(tok.c_str(), &end, 10);
    if (end == tok.c_str() || *end != '\0' || v > 1024) {
      std::fprintf(stderr, "ignoring bad --threads entry '%s'\n", tok.c_str());
      continue;
    }
    counts.push_back(static_cast<uint32_t>(v));
  }
  if (counts.empty()) counts.push_back(1);
  return counts;
}

}  // namespace tfsn::bench
