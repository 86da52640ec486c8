// psd: one command-line front end for the simulator's observability and
// torture tooling. Every subcommand declares its flags in one table that a
// single parser reads; see psd.cc for the subcommand list.
#ifndef PSD_TOOLS_PSD_H_
#define PSD_TOOLS_PSD_H_

#include <charconv>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "src/inet/addr.h"
#include "src/testbed/world.h"

namespace psd {

// The placement names --config accepts (case-insensitive), in Config order.
struct PlacementName {
  const char* name;
  Config config;
};
inline constexpr PlacementName kPlacements[] = {
    {"in-kernel", Config::kInKernel},     {"server", Config::kServer},
    {"library-ipc", Config::kLibraryIpc}, {"library-shm", Config::kLibraryShm},
    {"library-shm-ipf", Config::kLibraryShmIpf},
};
inline constexpr const char* kConfigMetavar =
    "in-kernel|server|library-ipc|library-shm|library-shm-ipf";

// Resolves a --config value: one placement name, or every placement for
// "all" when `allow_all`. Empty when the name is unknown.
std::vector<PlacementName> ResolveConfig(const std::string& name, bool allow_all);

// Flag value parsers; each returns false and leaves *out alone on a
// malformed value. Integers are counts, ids and seeds: plain non-negative
// decimal that fits the destination, nothing trailing. Reals must be finite.
template <typename T>
  requires std::is_integral_v<T>
bool ParseValue(const char* s, T* out) {
  uint64_t v = 0;
  const char* end = s + std::strlen(s);
  auto [stop, ec] = std::from_chars(s, end, v);
  if (ec != std::errc() || stop != end ||
      v > static_cast<uint64_t>(std::numeric_limits<T>::max())) {
    return false;
  }
  *out = static_cast<T>(v);
  return true;
}
bool ParseValue(const char* s, double* out);
bool ParseValue(const char* s, std::string* out);
bool ParseValue(const char* s, Config* out);
bool ParseValue(const char* s, IpProto* out);  // udp|tcp

// One flag: "--name VALUE" or "--name=VALUE", or a bare "--name" switch
// when the destination is a bool.
struct Flag {
  template <typename T>
  Flag(const char* name, const char* metavar, T* dest)
      : name(name), metavar(metavar), set([dest](const char* v) { return ParseValue(v, dest); }) {}
  Flag(const char* name, bool* dest)
      : name(name), set([dest](const char*) {
          *dest = true;
          return true;
        }) {}

  const char* name;
  const char* metavar = nullptr;  // nullptr: a switch that takes no value
  std::function<bool(const char*)> set;
};

class FlagSet {
 public:
  // `operands` names the positional arguments in the usage line; nullptr
  // means the subcommand takes none.
  FlagSet(const char* sub, std::vector<Flag> flags, const char* operands = nullptr)
      : sub_(sub), flags_(std::move(flags)), operands_name_(operands) {}

  // Parses argv[1..argc) (argv[0] is the subcommand name). On an unknown
  // flag, a missing or malformed value, or an unexpected operand, prints
  // the problem and the usage line to stderr and returns false.
  bool Parse(int argc, char** argv);
  // Prints the usage line to stderr; returns 2, the exit code for misuse.
  int Usage() const;
  const std::vector<std::string>& operands() const { return operands_; }

 private:
  const char* sub_;
  std::vector<Flag> flags_;
  const char* operands_name_;
  std::vector<std::string> operands_;
};

// Subcommand entry points: argv[0] is the subcommand name.
int StatMain(int argc, char** argv);
int TopMain(int argc, char** argv);
int ProfMain(int argc, char** argv);
int PktwalkMain(int argc, char** argv);
int TraceMain(int argc, char** argv);
int TortureMain(int argc, char** argv);
int DiffMain(int argc, char** argv);

}  // namespace psd

#endif  // PSD_TOOLS_PSD_H_
