// psd diff — compare two shared-schema BENCH_*.json files.
//
//   psd diff OLD.json NEW.json [--threshold=PCT]
//
// Prints a per-metric delta table over the two files' "summary" sections
// and exits 1 if any metric regressed by more than the threshold (default
// 10%). Direction is inferred from the metric name: *_per_sec, *speedup*
// and *throughput* metrics are better when higher; *ns*, *_ms*, *_us*,
// p50/p99 and *latency* metrics are better when lower; anything else is
// reported but never gates. This is the steering half of the host
// profiler: BENCH trajectories are only useful if a regression between two
// runs is one command to spot.
//
// The parser below handles exactly the JSON this repo's benches emit
// (objects, arrays, strings, numbers, bools, null — no \u escapes). It is
// deliberately local: tools must stay dependency-free.
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tools/psd.h"

namespace psd {
namespace {

// Only numbers and objects keep their contents: a summary is a flat object
// of numbers, and everything else just has to parse.
struct JsonValue {
  enum Kind { kOther, kNumber, kObject } kind = kOther;
  double num = 0;
  // Insertion-ordered; bench summaries are small.
  std::vector<std::pair<std::string, JsonValue>> obj;

  const JsonValue* Find(const std::string& key) const {
    for (const auto& kv : obj) {
      if (kv.first == key) {
        return &kv.second;
      }
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool Parse(JsonValue* out) { return Value(out) && (Skip(), pos_ == s_.size()); }

 private:
  void Skip() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      pos_++;
    }
  }
  bool Eat(const char* lit) {
    size_t n = std::strlen(lit);
    if (s_.compare(pos_, n, lit) != 0) {
      return false;
    }
    pos_ += n;
    return true;
  }
  bool String(std::string* out) {
    if (!Eat("\"")) {
      return false;
    }
    out->clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\' && pos_ < s_.size()) {
        char e = s_[pos_++];
        c = e == 'n' ? '\n' : e == 't' ? '\t' : e == 'r' ? '\r' : e;  // \", \\, \/ verbatim
      }
      out->push_back(c);
    }
    return Eat("\"");
  }
  // Objects and arrays share one loop; only objects read keys and keep
  // their members.
  bool Container(JsonValue* out, bool object) {
    const char* close = object ? "}" : "]";
    Skip();
    if (Eat(close)) {
      return true;
    }
    for (;;) {
      std::string key;
      if (object && !(Skip(), String(&key) && (Skip(), Eat(":")))) {
        return false;
      }
      JsonValue v;
      if (!Value(&v)) {
        return false;
      }
      if (object) {
        out->obj.emplace_back(std::move(key), std::move(v));
      }
      Skip();
      if (!Eat(",")) {
        return Eat(close);
      }
    }
  }
  bool Value(JsonValue* out) {
    Skip();
    if (Eat("{")) {
      out->kind = JsonValue::kObject;
      return Container(out, /*object=*/true);
    }
    if (Eat("[")) {
      return Container(out, /*object=*/false);
    }
    if (pos_ < s_.size() && s_[pos_] == '"') {
      std::string ignored;
      return String(&ignored);
    }
    if (Eat("true") || Eat("false") || Eat("null")) {
      return true;
    }
    char* end = nullptr;
    out->num = std::strtod(s_.c_str() + pos_, &end);
    if (pos_ >= s_.size() || end == s_.c_str() + pos_) {
      return false;
    }
    out->kind = JsonValue::kNumber;
    pos_ = static_cast<size_t>(end - s_.c_str());
    return true;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

bool LoadBench(const char* path, JsonValue* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_diff: cannot open %s\n", path);
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string text = ss.str();
  if (!JsonParser(text).Parse(out) || out->kind != JsonValue::kObject) {
    std::fprintf(stderr, "bench_diff: %s is not valid bench JSON\n", path);
    return false;
  }
  return true;
}

bool Contains(const std::string& key, const char* needle) {
  return key.find(needle) != std::string::npos;
}

// +1: higher is better, -1: lower is better, 0: informational only.
int Direction(const std::string& key) {
  if (Contains(key, "per_sec") || Contains(key, "speedup") || Contains(key, "throughput") ||
      Contains(key, "attributed_pct")) {
    return 1;
  }
  if (Contains(key, "_ns") || Contains(key, "ns_per") || Contains(key, "_ms") ||
      Contains(key, "_us") || Contains(key, "p50") || Contains(key, "p99") ||
      Contains(key, "latency")) {
    return -1;
  }
  return 0;
}

}  // namespace

int DiffMain(int argc, char** argv) {
  double threshold = 10.0;
  FlagSet flags("diff", {{"--threshold", "PCT", &threshold}}, "OLD.json NEW.json");
  if (!flags.Parse(argc, argv)) {
    return 2;
  }
  if (flags.operands().size() != 2) {
    return flags.Usage();
  }
  const char* files[] = {flags.operands()[0].c_str(), flags.operands()[1].c_str()};
  JsonValue a, b;
  if (!LoadBench(files[0], &a) || !LoadBench(files[1], &b)) {
    return 65;
  }
  const JsonValue* sa = a.Find("summary");
  const JsonValue* sb = b.Find("summary");
  if (sa == nullptr || sb == nullptr || sa->kind != JsonValue::kObject ||
      sb->kind != JsonValue::kObject) {
    std::fprintf(stderr, "bench_diff: missing summary section\n");
    return 65;
  }

  std::printf("bench_diff: %s -> %s (threshold %.0f%%)\n", files[0], files[1], threshold);
  std::printf("%-36s %14s %14s %9s\n", "metric", "old", "new", "delta");
  int regressions = 0;
  for (const auto& kv : sa->obj) {
    if (kv.second.kind != JsonValue::kNumber) {
      continue;
    }
    const JsonValue* nb = sb->Find(kv.first);
    if (nb == nullptr || nb->kind != JsonValue::kNumber) {
      std::printf("%-36s %14.6g %14s\n", kv.first.c_str(), kv.second.num, "(gone)");
      continue;
    }
    double ov = kv.second.num;
    double nv = nb->num;
    double pct = ov != 0 ? (nv - ov) / std::fabs(ov) * 100.0 : (nv != 0 ? 100.0 : 0.0);
    int dir = Direction(kv.first);
    bool worse = (dir > 0 && pct < -threshold) || (dir < 0 && pct > threshold);
    const char* tag = "";
    if (worse) {
      tag = "  REGRESSION";
      regressions++;
    } else if (dir != 0 && ((dir > 0 && pct > threshold) || (dir < 0 && pct < -threshold))) {
      tag = "  improved";
    }
    std::printf("%-36s %14.6g %14.6g %+8.1f%%%s\n", kv.first.c_str(), ov, nv, pct, tag);
  }
  for (const auto& kv : sb->obj) {
    if (kv.second.kind == JsonValue::kNumber && sa->Find(kv.first) == nullptr) {
      std::printf("%-36s %14s %14.6g\n", kv.first.c_str(), "(new)", kv.second.num);
    }
  }
  if (regressions > 0) {
    std::printf("bench_diff: %d metric(s) regressed past %.0f%%\n", regressions, threshold);
    return 1;
  }
  std::printf("bench_diff: no regressions past %.0f%%\n", threshold);
  return 0;
}

}  // namespace psd
