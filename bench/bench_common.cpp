#include "bench/bench_common.h"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "fault/fault_plan.h"

namespace e10::bench {

using namespace e10::units;
using workloads::CacheCase;

namespace {

/// Every flag a driver can accept: its usage form and its bit. The name is
/// the form up to '=' or '['; '=' means the flag takes a value, '[' that
/// the value is optional.
struct FlagForm {
  const char* form;
  Flag flag;
};

constexpr FlagForm kFlags[] = {
    {"--quick", kQuick},
    {"--files=N", kFiles},
    {"--combos=A_Bm,...", kCombos},
    {"--cases=disabled|enabled|theoretical,...", kCases},
    {"--rpn=N,...", kRpn},
    {"--no-breakdown", kNoBreakdown},
    {"--trace=PATH", kTrace},
    {"--report=PATH", kReport},
    {"--critical-path[=PATH]", kCriticalPath},
    {"--summary=PATH", kSummary},
    {"--recorded=DATE", kSummary},
    {"--faults=SPEC", kFaults},
    {"--check-concurrency", kCheckConcurrency},
    {"--pipeline=on|off", kKnobs},
    {"--sync-streams=N", kKnobs},
    {"--coalesce=on|off", kKnobs},
    {"--two-level=on|off", kKnobs},
};

std::vector<std::string> split_list(const std::string& list) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos != std::string::npos) {
    const std::size_t comma = list.find(',', pos);
    const std::string item =
        list.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!item.empty()) out.push_back(item);
    pos = comma == std::string::npos ? comma : comma + 1;
  }
  return out;
}

/// A positive decimal count, or a usage error naming `flag`.
int parse_count(const std::string& flag, const std::string& value,
                const std::string& usage) {
  errno = 0;
  char* end = nullptr;
  const long count = std::strtol(value.c_str(), &end, 10);
  if (value.empty() || *end != '\0' || errno != 0 || count < 1 ||
      count > INT_MAX) {
    usage_error(flag + ": expected a positive count, got '" + value + "'",
                usage);
  }
  return static_cast<int>(count);
}

bool parse_switch(const std::string& flag, const std::string& value,
                  const std::string& usage) {
  if (value != "on" && value != "off") {
    usage_error(flag + ": expected on or off, got '" + value + "'", usage);
  }
  return value == "on";
}

}  // namespace

void usage_error(const std::string& message, const std::string& usage) {
  std::fprintf(stderr, "%s\n%s\n", message.c_str(), usage.c_str());
  std::exit(2);
}

std::string flag_list(unsigned accepted) {
  std::string out;
  for (const FlagForm& f : kFlags) {
    if ((accepted & f.flag) == 0) continue;
    if (!out.empty()) out += ' ';
    out += f.form;
  }
  return out;
}

void parse_options(int argc, char** argv, int first, unsigned accepted,
                   const std::string& usage, Options& options) {
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : arg.substr(eq + 1);
    const FlagForm* form = nullptr;
    for (const FlagForm& f : kFlags) {
      const std::string_view known(f.form);
      if (known.starts_with(name) &&
          (known.size() == name.size() || known[name.size()] == '=' ||
           known[name.size()] == '[')) {
        form = &f;
      }
    }
    if (form == nullptr) usage_error("unknown flag: " + arg, usage);
    if ((accepted & form->flag) == 0) {
      usage_error(name + " does not apply here", usage);
    }
    const char syntax = form->form[name.size()];
    if ((syntax == '=') != (eq != std::string::npos) && syntax != '[') {
      usage_error(syntax == '=' ? name + " needs a value"
                                : name + " takes no value",
                  usage);
    }

    if (name == "--quick") {
      options.quick = true;
    } else if (name == "--no-breakdown") {
      options.breakdown = false;
    } else if (name == "--files") {
      options.files = parse_count(name, value, usage);
    } else if (name == "--trace") {
      options.trace_path = value;
    } else if (name == "--report") {
      options.report_path = value;
    } else if (name == "--critical-path") {
      options.critical_path = true;
      options.critical_path_path = value;
    } else if (name == "--summary") {
      options.summary_path = value;
    } else if (name == "--recorded") {
      options.recorded = value;
    } else if (name == "--combos") {
      options.combos = split_list(value);
    } else if (name == "--cases") {
      options.cases = split_list(value);
      for (const std::string& c : options.cases) {
        if (c != "disabled" && c != "enabled" && c != "theoretical") {
          usage_error("--cases: unknown case '" + c +
                          "' (expected disabled, enabled or theoretical)",
                      usage);
        }
      }
    } else if (name == "--rpn") {
      options.rpn.clear();
      for (const std::string& item : split_list(value)) {
        options.rpn.push_back(
            static_cast<std::size_t>(parse_count(name, item, usage)));
      }
      if (options.rpn.empty()) usage_error("--rpn: empty list", usage);
    } else if (name == "--check-concurrency") {
      options.check_concurrency = true;
    } else if (name == "--pipeline") {
      options.pipeline = parse_switch(name, value, usage);
    } else if (name == "--sync-streams") {
      options.sync_streams = parse_count(name, value, usage);
    } else if (name == "--coalesce") {
      options.coalesce = parse_switch(name, value, usage);
    } else if (name == "--two-level") {
      options.two_level = parse_switch(name, value, usage);
    } else if (name == "--faults") {
      // Validate up front so a typo fails before any experiment runs.
      if (const auto plan = fault::FaultPlan::parse(value); !plan.is_ok()) {
        usage_error("--faults: " + plan.status().message(), usage);
      }
      options.faults_spec = value;
    }
  }
}

bool Options::combo_selected(const std::string& label) const {
  return combos.empty() ||
         std::find(combos.begin(), combos.end(), label) != combos.end();
}

bool Options::case_selected(CacheCase cache_case) const {
  if (cases.empty()) return true;
  const char* name = nullptr;
  switch (cache_case) {
    case CacheCase::disabled: name = "disabled"; break;
    case CacheCase::enabled: name = "enabled"; break;
    case CacheCase::theoretical: name = "theoretical"; break;
  }
  return std::find(cases.begin(), cases.end(), name) != cases.end();
}

workloads::TestbedParams testbed_for(bool quick) {
  workloads::TestbedParams testbed = workloads::deep_er_testbed();
  if (quick) {
    testbed.compute_nodes = 16;
    testbed.ranks_per_node = 4;  // 64 ranks
  }
  return testbed;
}

std::vector<std::pair<int, Offset>> sweep_for(bool quick) {
  if (!quick) return workloads::paper_sweep();
  // Quarter-scale aggregator counts at 64 ranks / 16 nodes.
  std::vector<std::pair<int, Offset>> sweep;
  for (const int aggregators : {2, 4, 8, 16}) {
    for (const Offset cb : {4 * MiB, 16 * MiB, 64 * MiB}) {
      sweep.emplace_back(aggregators, cb);
    }
  }
  return sweep;
}

Time compute_delay_for(bool quick) {
  // Paper: 30 s, "in most cases enough to hide the synchronisation time".
  // Quick scale moves 1/8 of the data, so scale the delay accordingly.
  return quick ? units::seconds_f(3.75) : seconds(30);
}

double report_counter(const workloads::ExperimentResult& result,
                      const std::string& name) {
  const obs::Json* metrics = result.report.find("metrics");
  const obs::Json* counters =
      metrics != nullptr ? metrics->find("counters") : nullptr;
  const obs::Json* value = counters != nullptr ? counters->find(name) : nullptr;
  return value != nullptr ? value->as_number() : 0.0;
}

}  // namespace e10::bench
