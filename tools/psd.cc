// psd: one binary for the simulator's tooling.
//
//   psd stat     protocol counters, latency histograms and drop reasons of a
//                protolat run (netstat -s style), optional pcap captures
//   psd top      RPC, shared-metastate and migration tables of an accept churn
//   psd prof     host wall-clock profile of an engine workload
//   psd pktwalk  per-packet life stories of a protolat run
//   psd trace    chrome://tracing export of a protolat run
//   psd torture  seeded fault scenarios with invariant checks
//   psd diff     metric deltas between two BENCH_*.json files
//
// Misuse (an unknown flag, a missing or malformed value) prints the
// subcommand's usage line, which lists its flags, and exits 2.
#include "tools/psd.h"

#include <strings.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace psd {

std::vector<PlacementName> ResolveConfig(const std::string& name, bool allow_all) {
  std::vector<PlacementName> out;
  for (const PlacementName& p : kPlacements) {
    if ((allow_all && name == "all") || strcasecmp(name.c_str(), p.name) == 0) {
      out.push_back(p);
    }
  }
  return out;
}

bool ParseValue(const char* s, double* out) {
  char* end = nullptr;
  double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

bool ParseValue(const char* s, std::string* out) {
  *out = s;
  return true;
}

bool ParseValue(const char* s, Config* out) {
  std::vector<PlacementName> p = ResolveConfig(s, /*allow_all=*/false);
  if (p.empty()) {
    return false;
  }
  *out = p[0].config;
  return true;
}

bool ParseValue(const char* s, IpProto* out) {
  if (std::strcmp(s, "udp") == 0) {
    *out = IpProto::kUdp;
  } else if (std::strcmp(s, "tcp") == 0) {
    *out = IpProto::kTcp;
  } else {
    return false;
  }
  return true;
}

bool FlagSet::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; i++) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) {
      if (operands_name_ == nullptr) {
        std::fprintf(stderr, "psd %s: unexpected argument '%s'\n", sub_, arg);
        Usage();
        return false;
      }
      operands_.push_back(arg);
      continue;
    }
    const char* eq = std::strchr(arg, '=');
    std::string name = eq != nullptr ? std::string(arg, eq) : std::string(arg);
    const Flag* flag = nullptr;
    for (const Flag& f : flags_) {
      if (name == f.name) {
        flag = &f;
        break;
      }
    }
    if (flag == nullptr) {
      std::fprintf(stderr, "psd %s: unknown flag '%s'\n", sub_, name.c_str());
      Usage();
      return false;
    }
    const char* value = nullptr;
    if (flag->metavar == nullptr) {
      if (eq != nullptr) {
        std::fprintf(stderr, "psd %s: %s takes no value\n", sub_, flag->name);
        Usage();
        return false;
      }
    } else if (eq != nullptr) {
      value = eq + 1;
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "psd %s: %s requires an argument\n", sub_, flag->name);
      Usage();
      return false;
    }
    if (!flag->set(value)) {
      std::fprintf(stderr, "psd %s: bad %s value '%s'\n", sub_, flag->name, value);
      Usage();
      return false;
    }
  }
  return true;
}

int FlagSet::Usage() const {
  std::string line = std::string("usage: psd ") + sub_;
  for (const Flag& f : flags_) {
    line += std::string(" [") + f.name;
    if (f.metavar != nullptr) {
      line += std::string(" ") + f.metavar;
    }
    line += "]";
  }
  if (operands_name_ != nullptr) {
    line += std::string(" ") + operands_name_;
  }
  std::fprintf(stderr, "%s\n", line.c_str());
  return 2;
}

namespace {

struct Subcommand {
  const char* name;
  int (*main)(int argc, char** argv);
};

constexpr Subcommand kSubcommands[] = {
    {"stat", StatMain},   {"top", TopMain},         {"prof", ProfMain}, {"pktwalk", PktwalkMain},
    {"trace", TraceMain}, {"torture", TortureMain}, {"diff", DiffMain},
};

}  // namespace
}  // namespace psd

int main(int argc, char** argv) {
  if (argc >= 2) {
    for (const psd::Subcommand& sub : psd::kSubcommands) {
      if (std::strcmp(argv[1], sub.name) == 0) {
        return sub.main(argc - 1, argv + 1);
      }
    }
    std::fprintf(stderr, "psd: unknown subcommand '%s'\n", argv[1]);
  }
  std::fprintf(stderr, "usage: psd stat|top|prof|pktwalk|trace|torture|diff [FLAGS]\n");
  return 2;
}
