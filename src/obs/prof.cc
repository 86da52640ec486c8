#include "src/obs/prof.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <thread>

#include "src/base/json.h"
#include "src/obs/stats.h"

namespace psd {

namespace {

constexpr size_t kNumDomains = static_cast<size_t>(ProfDomain::kNumDomains);
constexpr size_t kMaxFiberSlots = 256;  // overflow aggregates into one slot

const char* const kDomainNames[kNumDomains] = {
    "other",           // kOther
    "sim.sched",       // kSimSched
    "sim.event",       // kSimEvent
    "fiber.swap",      // kFiberSwap
    "fiber.run",       // kFiberRun
    "pool.frame",      // kPoolFrame
    "pool.mbuf",       // kPoolMbuf
    "nic.ring",        // kNicRing
    "wire.deliver",    // kWireDeliver
    "filter.classify", // kFilterClassify
    "kern.trap",       // kKernTrap
    "kern.intr_read",  // kKernIntrRead
    "kern.copyout",    // kKernCopyout
    "sock.copyin",     // kSockCopyin
    "sock.copyout",    // kSockCopyout
    "sock.wakeup",     // kSockWakeup
    "sock.other",      // kSockOther
    "inet.proto_out",  // kInetProtoOut
    "inet.ip_out",     // kInetIpOut
    "inet.ether_out",  // kInetEtherOut
    "inet.mbuf_q",     // kInetMbufQueue
    "inet.ip_in",      // kInetIpIn
    "inet.proto_in",   // kInetProtoIn
    "inet.other",      // kInetOther
    "ipc.port",        // kIpcPort
    "core.rpc",        // kCoreRpc
    "serv.rpc",        // kServRpc
    "app",             // kApp
};

std::string FirstLineMatching(const char* path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t b = line.find_first_not_of(" \t", colon + 1);
        return b == std::string::npos ? "" : line.substr(b);
      }
    }
  }
  return "";
}

std::string ReadTrimmedFile(const char* path) {
  std::ifstream in(path);
  std::string s;
  if (!std::getline(in, s)) {
    return "";
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.pop_back();
  }
  return s;
}

// Fibers aggregate by role, not identity: "h3/intr" and "h97/intr" are the
// same interrupt-thread code, and a C10K run has thousands of "c<N>" client
// threads. Strip the host prefix and collapse digit runs to '*'.
std::string NormalizeFiberName(const std::string& name) {
  size_t slash = name.rfind('/');
  std::string tail = slash == std::string::npos ? name : name.substr(slash + 1);
  std::string out;
  out.reserve(tail.size());
  bool in_digits = false;
  for (char c : tail) {
    if (std::isdigit(static_cast<unsigned char>(c))) {
      if (!in_digits) {
        out.push_back('*');
        in_digits = true;
      }
    } else {
      out.push_back(c);
      in_digits = false;
    }
  }
  return out.empty() ? "?" : out;
}

}  // namespace

const char* ProfDomainName(ProfDomain d) {
  size_t i = static_cast<size_t>(d);
  return i < kNumDomains ? kDomainNames[i] : "?";
}

const HostContext& ReadHostContext() {
  static const HostContext ctx = [] {
    HostContext c;
    c.cpu_model = FirstLineMatching("/proc/cpuinfo", "model name");
    if (c.cpu_model.empty()) {
      c.cpu_model = "unknown";
    }
    c.cpu_cores = static_cast<int>(std::thread::hardware_concurrency());
    c.governor = ReadTrimmedFile("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
    if (c.governor.empty()) {
      c.governor = "unknown";
    }
    return c;
  }();
  return ctx;
}

// ---------------------------------------------------------------------------
// Renderers (build-independent: they consume a HostProfReport).

std::string RenderHostProfTable(const HostProfReport& r) {
  std::string out;
  char buf[256];
  if (!r.enabled) {
    return "host profiler disabled (PSD_OBS_DISABLE_PROF or never started)\n";
  }
  std::snprintf(buf, sizeof buf,
                "-- host profile: %.1f ms wall, %.1f%% attributed to named domains --\n",
                r.wall_ns / 1e6, r.attributed_pct());
  out += buf;
  std::snprintf(buf, sizeof buf, "cpu: %s (%d cores, governor %s)\n", r.host.cpu_model.c_str(),
                r.host.cpu_cores, r.host.governor.c_str());
  out += buf;
  std::snprintf(buf, sizeof buf, "%-16s %12s %14s %11s %8s\n", "domain", "count", "total_ns",
                "ns/call", "%wall");
  out += buf;
  double other_ns = 0;
  for (const HostProfReport::Dom& d : r.domains) {
    if (d.domain == ProfDomain::kOther) {
      other_ns = d.total_ns;  // printed after the named domains
      continue;
    }
    double per_call = d.count == 0 ? 0.0 : d.total_ns / static_cast<double>(d.count);
    double pct = r.wall_ns <= 0 ? 0.0 : 100.0 * d.total_ns / r.wall_ns;
    std::snprintf(buf, sizeof buf, "%-16s %12llu %14.0f %11.1f %8.2f\n", d.name,
                  static_cast<unsigned long long>(d.count), d.total_ns, per_call, pct);
    out += buf;
  }
  std::snprintf(buf, sizeof buf, "%-16s %12s %14.0f %11s %8.2f\n", "other", "-", other_ns, "-",
                r.wall_ns <= 0 ? 0.0 : 100.0 * other_ns / r.wall_ns);
  out += buf;
  std::snprintf(buf, sizeof buf, "%-16s %12s %14.0f %11s %8.2f\n", "unattributed", "-",
                r.unattributed_ns, "-",
                r.wall_ns <= 0 ? 0.0 : 100.0 * r.unattributed_ns / r.wall_ns);
  out += buf;
  if (!r.fibers.empty()) {
    out += "-- fibers (exclusive host ns) --\n";
    for (const auto& [name, ns] : r.fibers) {
      std::snprintf(buf, sizeof buf, "%-16s %14.0f %8.2f\n", name.c_str(), ns,
                    r.wall_ns <= 0 ? 0.0 : 100.0 * ns / r.wall_ns);
      out += buf;
    }
  }
  return out;
}

std::string RenderHostProfFlame(const HostProfReport& r) {
  std::string out;
  char buf[64];
  for (const auto& [path, ns] : r.stacks) {
    std::snprintf(buf, sizeof buf, " %llu\n", static_cast<unsigned long long>(ns + 0.5));
    out += path;
    out += buf;
  }
  return out;
}

namespace {

std::string DomainsJson(const HostProfReport& r) {
  std::string out = "{";
  bool first = true;
  char buf[128];
  for (const HostProfReport::Dom& d : r.domains) {
    if (!first) {
      out += ", ";
    }
    first = false;
    std::snprintf(buf, sizeof buf, ": {\"count\": %llu, \"ns\": %.0f}",
                  static_cast<unsigned long long>(d.count), d.total_ns);
    out += JsonQuote(d.name);
    out += buf;
  }
  out += "}";
  return out;
}

}  // namespace

std::string RenderHostProfJson(const HostProfReport& r) {
  char buf[256];
  std::string out = "{\"psdprof\": 1, \"enabled\": ";
  out += r.enabled ? "true" : "false";
  std::snprintf(buf, sizeof buf,
                ", \"wall_ns\": %.0f, \"attributed_pct\": %.2f, \"other_ns\": %.0f, "
                "\"unattributed_ns\": %.0f, ",
                r.wall_ns, r.attributed_pct(), r.other_ns, r.unattributed_ns);
  out += buf;
  out += "\"cpu_model\": " + JsonQuote(r.host.cpu_model);
  std::snprintf(buf, sizeof buf, ", \"cpu_cores\": %d, ", r.host.cpu_cores);
  out += buf;
  out += "\"governor\": " + JsonQuote(r.host.governor);
  out += ", \"domains\": " + DomainsJson(r);
  out += ", \"fibers\": {";
  bool first = true;
  for (const auto& [name, ns] : r.fibers) {
    if (!first) {
      out += ", ";
    }
    first = false;
    std::snprintf(buf, sizeof buf, ": %.0f", ns);
    out += JsonQuote(name);
    out += buf;
  }
  out += "}, \"stacks\": {";
  first = true;
  for (const auto& [path, ns] : r.stacks) {
    if (!first) {
      out += ", ";
    }
    first = false;
    std::snprintf(buf, sizeof buf, ": %.0f", ns);
    out += JsonQuote(path);
    out += buf;
  }
  out += "}}";
  return out;
}

std::string HostProfileJsonFragment(const HostProfReport& r) {
  if (!r.enabled) {
    return "{\"enabled\": false}";
  }
  char buf[160];
  std::string out = "{\"cpu_model\": " + JsonQuote(r.host.cpu_model);
  std::snprintf(buf, sizeof buf,
                ", \"wall_ns\": %.0f, \"attributed_pct\": %.2f, \"unattributed_ns\": %.0f, "
                "\"domains\": ",
                r.wall_ns, r.attributed_pct(), r.unattributed_ns);
  out += buf;
  out += DomainsJson(r);
  out += "}";
  return out;
}

#ifndef PSD_OBS_DISABLE_PROF

// ---------------------------------------------------------------------------
// HostProfiler

HostProfiler::HostProfiler() {
  nodes_.push_back(PathNode{0, 0xffff, 0, 0, {}});  // sentinel root
  base_node_ = InternChild(0, ProfDomain::kOther);
  fiber_node_ = InternChild(0, ProfDomain::kFiberRun);
  swap_node_ = InternChild(0, ProfDomain::kFiberSwap);
  Ctx base;
  base.root = ProfDomain::kOther;
  base.fiber_slot = -1;
  base.name = "(main)";
  ctxs_.push_back(std::move(base));
  ResetCtx(&ctxs_[0]);
}

uint32_t HostProfiler::InternChild(uint32_t parent, ProfDomain d) {
  uint16_t dom = static_cast<uint16_t>(d);
  uint32_t idx = nodes_[parent].kids[dom];
  if (idx != 0) {
    return idx;
  }
  idx = static_cast<uint32_t>(nodes_.size());
  nodes_[parent].kids[dom] = idx;
  nodes_.push_back(PathNode{parent, dom, 0, 0, {}});
  return idx;
}

void HostProfiler::ResetCtx(Ctx* c) {
  c->path = c->root == ProfDomain::kFiberRun ? fiber_node_ : base_node_;
  c->ticks = 0;
}

int HostProfiler::InternFiber(const std::string& normalized) {
  auto it = fiber_index_.find(normalized);
  if (it != fiber_index_.end()) {
    return it->second;
  }
  if (fiber_names_.size() >= kMaxFiberSlots) {
    return InternFiber("(overflow)");
  }
  int slot = static_cast<int>(fiber_names_.size());
  fiber_names_.push_back(normalized);
  fiber_index_.emplace(normalized, slot);
  return slot;
}

uint32_t HostProfiler::RegisterCtx(const std::string& fiber_name) {
  Ctx c;
  c.root = ProfDomain::kFiberRun;
  c.name = NormalizeFiberName(fiber_name);
  c.fiber_slot = InternFiber(c.name);
  ctxs_.push_back(std::move(c));
  ResetCtx(&ctxs_.back());
  return static_cast<uint32_t>(ctxs_.size() - 1);
}

void HostProfiler::Start() {
  epoch_++;
  for (PathNode& n : nodes_) {
    n.count = 0;
    n.ticks = 0;
  }
  spans_.clear();
  swap_pending_ = false;
  cur_ctx_ = 0;
  start_steady_ = std::chrono::steady_clock::now();
  start_tick_ = NowTicks();
  last_tick_ = start_tick_;
  ctx_since_ = start_tick_;
  for (Ctx& c : ctxs_) {
    ResetCtx(&c);
  }
  cur_path_ = ctxs_[0].path;
  running_ = true;
  active_ = this;
}

void HostProfiler::Stop() {
  if (!running_) {
    return;
  }
  Accrue(NowTicks());
  CloseCtxShare(last_tick_);
  stop_tick_ = last_tick_;
  stop_steady_ = std::chrono::steady_clock::now();
  running_ = false;
  active_ = nullptr;
}

void HostProfiler::RecordSpans(size_t capacity) {
  record_spans_ = capacity > 0;
  span_cap_ = capacity;
  spans_.reserve(std::min<size_t>(capacity, 1 << 20));
}

void HostProfiler::RecordSpan(const Token& t, uint64_t end_tick) {
  if (spans_.size() < span_cap_) {
    spans_.push_back(RawSpan{nodes_[cur_path_].domain, t.ctx, t.start_tick, end_tick});
  }
}

double HostProfiler::NsPerTickNow() const {
  uint64_t end_tick = running_ ? NowTicks() : stop_tick_;
  auto end_steady = running_ ? std::chrono::steady_clock::now() : stop_steady_;
  uint64_t ticks = end_tick - start_tick_;
  if (ticks == 0) {
    return 1.0;
  }
  double ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end_steady - start_steady_).count());
  return ns / static_cast<double>(ticks);
}

uint64_t HostProfiler::SlotTicks(int slot) const {
  uint64_t ticks = 0;
  for (const Ctx& c : ctxs_) {
    if (c.fiber_slot == slot) {
      ticks += c.ticks;
    }
  }
  return ticks;
}

void HostProfiler::DomainTotals(uint64_t counts[kDomainCount],
                                uint64_t ticks[kDomainCount]) const {
  std::fill(counts, counts + kDomainCount, 0);
  std::fill(ticks, ticks + kDomainCount, 0);
  for (uint32_t n = 1; n < nodes_.size(); n++) {
    counts[nodes_[n].domain] += nodes_[n].count;
    ticks[nodes_[n].domain] += nodes_[n].ticks;
  }
}

std::string HostProfiler::PathString(uint32_t node) const {
  std::vector<const char*> parts;
  for (uint32_t n = node; n != 0; n = nodes_[n].parent) {
    parts.push_back(kDomainNames[nodes_[n].domain]);
  }
  std::string out;
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    if (!out.empty()) {
      out += ';';
    }
    out += *it;
  }
  return out;
}

HostProfReport HostProfiler::Snapshot() {
  HostProfReport r;
  r.enabled = epoch_ > 0;
  if (!r.enabled) {
    return r;
  }
  uint64_t end_tick;
  std::chrono::steady_clock::time_point end_steady;
  if (running_) {
    Accrue(NowTicks());
    CloseCtxShare(last_tick_);
    end_tick = last_tick_;
    end_steady = std::chrono::steady_clock::now();
  } else {
    end_tick = stop_tick_;
    end_steady = stop_steady_;
  }
  r.wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end_steady - start_steady_).count());
  uint64_t tick_span = end_tick - start_tick_;
  r.ns_per_tick = tick_span == 0 ? 1.0 : r.wall_ns / static_cast<double>(tick_span);
  r.host = ReadHostContext();

  uint64_t counts[kNumDomains];
  uint64_t ticks[kNumDomains];
  DomainTotals(counts, ticks);
  for (size_t i = 0; i < kNumDomains; i++) {
    if (counts[i] == 0 && ticks[i] == 0) {
      continue;
    }
    r.domains.push_back(HostProfReport::Dom{static_cast<ProfDomain>(i), kDomainNames[i],
                                            counts[i],
                                            static_cast<double>(ticks[i]) * r.ns_per_tick});
  }
  std::sort(r.domains.begin(), r.domains.end(),
            [](const auto& a, const auto& b) { return a.total_ns > b.total_ns; });
  for (const auto& d : r.domains) {
    if (d.domain == ProfDomain::kOther) {
      r.other_ns += d.total_ns;
    } else {
      r.attributed_ns += d.total_ns;
    }
  }
  r.unattributed_ns = std::max(0.0, r.wall_ns - r.attributed_ns - r.other_ns);

  for (int slot = -1; slot < static_cast<int>(fiber_names_.size()); slot++) {
    uint64_t ticks = SlotTicks(slot);
    if (ticks > 0) {
      r.fibers.emplace_back(slot < 0 ? "(main)" : fiber_names_[static_cast<size_t>(slot)],
                            static_cast<double>(ticks) * r.ns_per_tick);
    }
  }
  std::sort(r.fibers.begin(), r.fibers.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });

  for (uint32_t n = 1; n < nodes_.size(); n++) {
    if (nodes_[n].ticks > 0) {
      r.stacks.emplace_back(PathString(n), static_cast<double>(nodes_[n].ticks) * r.ns_per_tick);
    }
  }
  std::sort(r.stacks.begin(), r.stacks.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });

  if (!spans_.empty()) {
    std::unordered_map<uint32_t, uint32_t> remap;
    for (const RawSpan& s : spans_) {
      auto [it, fresh] = remap.try_emplace(s.ctx, static_cast<uint32_t>(r.ctx_names.size()));
      if (fresh) {
        r.ctx_names.push_back(ctxs_[s.ctx].name);
      }
      r.spans.push_back(HostProfSpan{
          static_cast<ProfDomain>(s.domain), it->second,
          static_cast<double>(s.begin_tick - start_tick_) * r.ns_per_tick,
          static_cast<double>(s.end_tick - s.begin_tick) * r.ns_per_tick});
    }
  }
  return r;
}

void HostProfiler::ExportStats(StatsRegistry* reg, const std::string& prefix) const {
  const HostProfiler* self = this;
  reg->RegisterGauge(prefix + "wall_ns", [self] {
    auto end = self->running_ ? std::chrono::steady_clock::now() : self->stop_steady_;
    auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(end - self->start_steady_);
    return self->epoch_ == 0 ? 0ull : static_cast<uint64_t>(ns.count());
  });
  for (size_t i = 0; i < kNumDomains; i++) {
    reg->RegisterGauge(prefix + kDomainNames[i], [self, i] {
      uint64_t counts[kNumDomains];
      uint64_t ticks[kNumDomains];
      self->DomainTotals(counts, ticks);
      return static_cast<uint64_t>(static_cast<double>(ticks[i]) * self->NsPerTickNow());
    });
  }
  // Fibers seen so far; fibers first scheduled after this call accumulate
  // but are only visible through Snapshot().
  for (size_t i = 0; i < fiber_names_.size(); i++) {
    reg->RegisterGauge(prefix + "fiber." + fiber_names_[i], [self, i] {
      uint64_t ticks = self->SlotTicks(static_cast<int>(i));
      if (self->running_ && self->ctxs_[self->cur_ctx_].fiber_slot == static_cast<int>(i)) {
        ticks += NowTicks() - self->ctx_since_;  // the running fiber's open share
      }
      return static_cast<uint64_t>(static_cast<double>(ticks) * self->NsPerTickNow());
    });
  }
}

#endif  // PSD_OBS_DISABLE_PROF

}  // namespace psd
