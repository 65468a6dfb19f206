// bench_compare: the never-slower perf gate.
//
// Diffs two performance documents (bench_sweep --report= run-report arrays
// or checked-in results/BENCH_*.json files) point by point and fails when
// any point regressed beyond the threshold, with per-phase attribution of
// where the lost time went. The gate.* ctest cases run this against the
// checked-in baselines in results/ci/; see docs/observability.md.
//
// Usage:
//   bench_compare [--threshold=0.02] [--strict-checksums] BASELINE CANDIDATE
//
// Exit status: 0 = no regression, 1 = regression (or checksum mismatch with
// --strict-checksums), 2 = usage or parse error.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/compare.h"
#include "obs/json.h"

namespace {

e10::Result<e10::obs::Json> load_json(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return e10::Status::error(e10::Errc::io_error,
                              "cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return e10::obs::Json::parse(buffer.str());
}

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--threshold=FRACTION] [--strict-checksums] "
               "BASELINE CANDIDATE\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  e10::obs::CompareOptions options;
  std::string baseline_path;
  std::string candidate_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--threshold=", 0) == 0) {
      char* end = nullptr;
      options.threshold = std::strtod(arg.c_str() + 12, &end);
      if (end == nullptr || *end != '\0' || options.threshold < 0) {
        std::fprintf(stderr, "--threshold: expected a non-negative number\n");
        return 2;
      }
    } else if (arg == "--strict-checksums") {
      options.strict_checksums = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      usage(argv[0]);
      return 2;
    } else if (baseline_path.empty()) {
      baseline_path = arg;
    } else if (candidate_path.empty()) {
      candidate_path = arg;
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  if (baseline_path.empty() || candidate_path.empty()) {
    usage(argv[0]);
    return 2;
  }

  // A CI gate must never crash on its inputs: any malformed document is a
  // diagnostic plus exit 2, and an unexpected exception from the JSON layer
  // is downgraded to the same rather than aborting the pipeline step.
  try {
    const auto baseline = load_json(baseline_path);
    if (!baseline.is_ok()) {
      std::fprintf(stderr, "baseline %s: %s\n", baseline_path.c_str(),
                   baseline.status().message().c_str());
      return 2;
    }
    const auto candidate = load_json(candidate_path);
    if (!candidate.is_ok()) {
      std::fprintf(stderr, "candidate %s: %s\n", candidate_path.c_str(),
                   candidate.status().message().c_str());
      return 2;
    }

    const auto report =
        e10::obs::compare_runs(baseline.value(), candidate.value(), options);
    if (!report.is_ok()) {
      std::fprintf(stderr, "%s\n", report.status().message().c_str());
      return 2;
    }
    std::fputs(e10::obs::compare_table(report.value(), options).c_str(),
               stdout);
    return report.value().ok(options) ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_compare: internal error: %s\n", e.what());
    return 2;
  }
}
