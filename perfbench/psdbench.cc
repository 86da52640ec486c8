// psdbench: one workload of the decomposed-stack benchmark per process.
//
//   psdbench --workload stream|rpc|churn --seed N --seconds S --trace 0|1
//            [--scale full|smoke] [--expect-digest HEX] [--trace-dir DIR]
//
// --trace 0 repeats the workload for S host seconds, each run in a forked
// child with every probe off, and reports the end-to-end metrics: host
// set-up and run time (medians), peak RSS, and the virtual-clock goodput and
// latency percentiles. --trace 1 repeats untraced runs for S/2 seconds, then
// runs once in-process with the benchmark's spans, the SocketApi latency
// histograms, the host profiler and (rpc) the Table 4 stage recorder
// attached, and reports the per-layer metrics; the spans, profile and
// metrics are written to DIR/<workload>-seed<N>.json.
//
// Every run checks its outputs (exit 2 on a failed gate) and every virtual
// quantity must repeat exactly across the runs of one seed, traced or not
// (exit 3). The last stdout line is the result object:
//   {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/workloads.h"
#include "src/obs/prof.h"

namespace psd::bench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::optional<uint64_t> expect_digest;
  std::string trace_dir = ".bench_build/traces";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "psdbench: %s\nusage: psdbench --workload stream|rpc|churn --seed N --seconds S "
               "--trace 0|1 [--scale full|smoke] [--expect-digest HEX] [--trace-dir DIR]\n",
               why);
  std::exit(64);
}

Args Parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; i++) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
      if (!a.trace && std::strcmp(v, "0") != 0) {
        Usage("--trace takes 0 or 1");
      }
    } else if (flag == "--scale") {
      a.smoke = std::strcmp(v, "smoke") == 0;
      if (!a.smoke && std::strcmp(v, "full") != 0) {
        Usage("--scale takes full or smoke");
      }
    } else if (flag == "--expect-digest") {
      a.expect_digest = std::strtoull(v, &end, 16);
    } else if (flag == "--trace-dir") {
      a.trace_dir = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == v)) {
      Usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload || a.seconds <= 0) {
    Usage("--workload and a positive --seconds are required");
  }
  return a;
}

Scale ScaleFor(bool smoke) {
  Scale s;
  if (smoke) {
    s.stream_chunks = 64;
    s.rpc_callers = 4;
    s.rpc_calls = 20;
    s.churn_clients = 16;
    s.churn_conns = 40;
    s.churn_migrations = 2;
  }
  return s;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n == 0 ? 0 : (n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]));
}

// Nearest-rank percentile of virtual durations, in milliseconds.
double PctMs(std::vector<SimDuration> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return ToMillis(v[std::clamp<size_t>(rank, 1, v.size()) - 1]);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void Emit(uint64_t attempted, uint64_t failed, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": true, \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); i++) {
    char buf[200];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

// Runs one iteration and applies the correctness gate (exit 2).
Outcome RunChecked(const Args& a, const Scale& scale, const Obs& obs) {
  std::optional<Outcome> o = RunWorkload(a.workload, a.seed, scale, obs, a.expect_digest);
  if (!o) {
    Usage(("unknown workload " + a.workload).c_str());
  }
  if (!o->gate_error.empty()) {
    std::fprintf(stderr, "psdbench: correctness gate failed: %s\n", o->gate_error.c_str());
    std::exit(2);
  }
  if (o->lat.empty()) {
    std::fprintf(stderr, "psdbench: %s completed no operation\n", a.workload.c_str());
    std::exit(2);
  }
  return std::move(*o);
}

// What one run reports back to the benchmark process.
struct Sample {
  double setup_s = 0;
  double run_s = 0;
  double sys_s = 0;
  double rss_mb = 0;
  uint64_t digest = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t lat_n = 0;
  uint64_t connect_n = 0;
  uint64_t migrations = 0;
  double goodput_kb_s = 0;
  double lat_p50_ms = 0;
  double lat_p99_ms = 0;
};

Sample Summarize(const Outcome& o) {
  Sample s;
  s.setup_s = o.setup_s;
  s.run_s = o.run_s;
  s.sys_s = o.sys_s;
  s.rss_mb = PeakRssMb();
  s.digest = o.Digest();
  s.attempted = o.attempted;
  s.failed = o.failed;
  s.lat_n = o.lat.size();
  s.connect_n = o.connect.size();
  s.migrations = o.migrate.size();
  s.goodput_kb_s =
      Ratio(static_cast<double>(o.payload_bytes) / 1024.0, ToSeconds(o.payload_time));
  s.lat_p50_ms = PctMs(o.lat, 0.5);
  s.lat_p99_ms = PctMs(o.lat, 0.99);
  return s;
}

// Runs one untraced iteration in a forked child. Every measured run thus
// starts from the same pristine process (cold frame/mbuf pools, a fresh
// heap), as a single run of the simulator does, and its peak RSS is its own:
// runs repeated in one process place each World's fiber stacks at new heap
// addresses and grow RSS run by run.
Sample RunInChild(const Args& a, const Scale& scale) {
  std::fflush(stdout);
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("psdbench: pipe");
    std::exit(1);
  }
  pid_t pid = fork();
  if (pid < 0) {
    std::perror("psdbench: fork");
    std::exit(1);
  }
  if (pid == 0) {
    close(fds[0]);
    Sample s = Summarize(RunChecked(a, scale, Obs{}));
    bool sent = write(fds[1], &s, sizeof s) == static_cast<ssize_t>(sizeof s);
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  Sample s;
  ssize_t got = read(fds[0], &s, sizeof s);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || got != static_cast<ssize_t>(sizeof s)) {
    std::fprintf(stderr, "psdbench: %s run failed\n", a.workload.c_str());
    std::exit(WIFEXITED(status) && WEXITSTATUS(status) != 0 ? WEXITSTATUS(status) : 1);
  }
  return s;
}

// Repeats untraced runs for `seconds` (at least `min_runs`); every run of
// one seed must reproduce the first one's virtual outputs (exit 3).
std::vector<Sample> Measure(const Args& a, const Scale& scale, double seconds, size_t min_runs) {
  using Clock = std::chrono::steady_clock;
  std::vector<Sample> runs;
  Clock::time_point t0 = Clock::now();
  while (runs.size() < min_runs ||
         std::chrono::duration<double>(Clock::now() - t0).count() < seconds) {
    runs.push_back(RunInChild(a, scale));
    if (runs.back().digest != runs.front().digest) {
      std::fprintf(stderr, "psdbench: %s seed %llu: virtual outputs differ between runs\n",
                   a.workload.c_str(), static_cast<unsigned long long>(a.seed));
      std::exit(3);
    }
  }
  return runs;
}

template <typename F>
double MedianOf(const std::vector<Sample>& runs, F field) {
  std::vector<double> v;
  for (const Sample& s : runs) {
    v.push_back(field(s));
  }
  return Median(v);
}

// The sample counts behind the percentiles, ahead of the result object.
void PrintSamples(const Args& a, const Sample& s, size_t runs) {
  std::printf("%s seed %llu: %zu run(s); lat n=%llu p50=%.4f ms p99=%.4f ms", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), runs,
              static_cast<unsigned long long>(s.lat_n), s.lat_p50_ms, s.lat_p99_ms);
  if (s.connect_n != 0) {
    std::printf("; connect n=%llu", static_cast<unsigned long long>(s.connect_n));
  }
  if (s.migrations != 0) {
    std::printf("; migrations n=%llu", static_cast<unsigned long long>(s.migrations));
  }
  std::printf("; attempted %llu failed %llu\n", static_cast<unsigned long long>(s.attempted),
              static_cast<unsigned long long>(s.failed));
}

int EndToEnd(const Args& a, const Scale& scale) {
  std::vector<Sample> runs = Measure(a, scale, a.seconds, 3);
  const Sample& first = runs.front();
  PrintSamples(a, first, runs.size());
  auto [lo, hi] = std::minmax_element(
      runs.begin(), runs.end(), [](const Sample& x, const Sample& y) { return x.run_s < y.run_s; });
  std::printf("run_s over %zu runs: min %.4f max %.4f\n", runs.size(), lo->run_s, hi->run_s);
  Emit(first.attempted, first.failed,
       {
           {"setup_s", MedianOf(runs, [](const Sample& s) { return s.setup_s; }), "s"},
           {"run_s", MedianOf(runs, [](const Sample& s) { return s.run_s; }), "s"},
           {"peak_rss_mb", MedianOf(runs, [](const Sample& s) { return s.rss_mb; }), "MB"},
           {"goodput_kb_s", first.goodput_kb_s, "KB/s"},
           {"lat_p50_ms", first.lat_p50_ms, "ms"},
           {"lat_p99_ms", first.lat_p99_ms, "ms"},
       });
  return 0;
}

// Stage keys for the Table 4 ledger (metric names allow no spaces).
constexpr std::pair<Stage, const char*> kStages[] = {
    {Stage::kEntryCopyin, "entry_copyin"},     {Stage::kProtoOutput, "proto_output"},
    {Stage::kIpOutput, "ip_output"},           {Stage::kEtherOutput, "ether_output"},
    {Stage::kDevIntrRead, "dev_intr_read"},    {Stage::kNetisrFilter, "netisr_filter"},
    {Stage::kKernelCopyout, "kernel_copyout"}, {Stage::kMbufQueue, "mbuf_queue"},
    {Stage::kIpIntr, "ipintr"},                {Stage::kProtoInput, "proto_input"},
    {Stage::kWakeupUser, "wakeup_user"},       {Stage::kCopyoutExit, "copyout_exit"},
    {Stage::kNetworkTransit, "network_transit"},
};

int PerLayer(const Args& a, const Scale& scale) {
  // Untraced reference runs, then one traced run in this still-pristine
  // process: same cold start, same virtual outputs.
  std::vector<Sample> base = Measure(a, scale, a.seconds / 2, 1);
  SpanLog spans;
  ApiLatency api;
  StageRecorder stages;
  Obs obs;
  obs.spans = &spans;
  obs.api = &api;
  obs.stages = a.workload == "rpc" ? &stages : nullptr;
  obs.profile = true;
  Outcome o = RunChecked(a, scale, obs);
  HostProfReport rep = HostProfiler::Get().Snapshot();
  if (o.Digest() != base.front().digest) {
    std::fprintf(stderr, "psdbench: %s seed %llu: tracing changed the virtual outputs\n",
                 a.workload.c_str(), static_cast<unsigned long long>(a.seed));
    return 3;
  }

  auto& c = o.counters;
  const double frames = c["netsim.frames"];
  auto dom_ns = [&rep](std::initializer_list<ProfDomain> ds) {
    double ns = 0;
    for (const HostProfReport::Dom& d : rep.domains) {
      for (ProfDomain want : ds) {
        ns += d.domain == want ? d.total_ns : 0;
      }
    }
    return ns;
  };
  auto dom_count = [&rep](ProfDomain want) {
    for (const HostProfReport::Dom& d : rep.domains) {
      if (d.domain == want) {
        return static_cast<double>(d.count);
      }
    }
    return 0.0;
  };
  auto per_frame = [&](std::initializer_list<ProfDomain> ds) {
    return Ratio(dom_ns(ds), frames);
  };
  double timer_ns = 0;  // host time of the per-stack TCP timer fibers
  for (const auto& [fiber, ns] : rep.fibers) {
    timer_ns += fiber == "timer" ? ns : 0;
  }
  const double conns = static_cast<double>(o.conns);
  const double calls = static_cast<double>(o.round_trips);
  const bool rpc = a.workload == "rpc";
  const bool churn = a.workload == "churn";

  std::vector<Metric> m = {
      {"sim.events", c["sim.events"], "count"},
      {"sim.switches_per_frame", Ratio(c["sim.switches"], frames), "ratio"},
      {"sim.fiber_swap_ns_per_frame", per_frame({ProfDomain::kFiberSwap}), "ns"},
      {"sim.fiber_run_ns_per_frame", per_frame({ProfDomain::kFiberRun}), "ns"},
      {"sim.sched_ns_per_frame", per_frame({ProfDomain::kSimSched}), "ns"},
      {"sim.event_ns_per_frame", per_frame({ProfDomain::kSimEvent}), "ns"},
      {"sim.timer_fiber_pct", Ratio(100.0 * timer_ns, rep.wall_ns), "%"},
      {"sim.sys_cpu_s", MedianOf(base, [](const Sample& s) { return s.sys_s; }), "s"},
      {"netsim.frames", frames, "count"},
      {"netsim.wire_deliver_ns_per_frame", per_frame({ProfDomain::kWireDeliver}), "ns"},
      {"netsim.nic_ring_ns_per_frame", per_frame({ProfDomain::kNicRing}), "ns"},
      {"netsim.frame_pool_ns_per_frame", per_frame({ProfDomain::kPoolFrame}), "ns"},
      {"netsim.frame_pool_misses", c["netsim.frame_pool_misses"], "count"},
      {"kern.traps", dom_count(ProfDomain::kKernTrap), "count"},
      {"kern.trap_ns_per_frame", per_frame({ProfDomain::kKernTrap}), "ns"},
      {"kern.intr_read_ns_per_frame", per_frame({ProfDomain::kKernIntrRead}), "ns"},
      {"kern.copyout_ns_per_frame", per_frame({ProfDomain::kKernCopyout}), "ns"},
      {"kern.queue_drops", c["kern.queue_drops"], "count"},
      {"filter.classify_per_frame", Ratio(dom_count(ProfDomain::kFilterClassify), frames),
       "ratio"},
      {"filter.classify_ns_per_frame", per_frame({ProfDomain::kFilterClassify}), "ns"},
      {"inet.proto_in_ns_per_frame", per_frame({ProfDomain::kInetProtoIn}), "ns"},
      {"inet.proto_out_ns_per_frame", per_frame({ProfDomain::kInetProtoOut}), "ns"},
      {"inet.ip_ns_per_frame", per_frame({ProfDomain::kInetIpIn, ProfDomain::kInetIpOut}), "ns"},
      {"inet.ether_out_ns_per_frame", per_frame({ProfDomain::kInetEtherOut}), "ns"},
      {"inet.other_ns_per_frame", per_frame({ProfDomain::kInetOther, ProfDomain::kInetMbufQueue}),
       "ns"},
      {"inet.retransmits", c["inet.retransmits"], "count"},
      {"inet.acks_delayed", c["inet.acks_delayed"], "count"},
      {"inet.listen_overflows", c["inet.listen_overflows"], "count"},
      {"mbuf.pool_ns_per_frame", per_frame({ProfDomain::kPoolMbuf}), "ns"},
      {"mbuf.pool_hit_ratio",
       Ratio(c["mbuf.pool_hits"], c["mbuf.pool_hits"] + c["mbuf.pool_misses"]), "ratio"},
      {"sock.copy_ns_per_frame", per_frame({ProfDomain::kSockCopyin, ProfDomain::kSockCopyout}),
       "ns"},
      {"sock.other_ns_per_frame", per_frame({ProfDomain::kSockWakeup, ProfDomain::kSockOther}),
       "ns"},
      {"sock.wakeups", c["sock.wakeups"], "count"},
      {"sock.recv_blocks", c["sock.recv_blocks"], "count"},
      {"sock.poll_edges_per_wakeup", Ratio(c["sock.poll_edges"], c["sock.poll_wakeups"]),
       "ratio"},
      {"ipc.port_msgs", dom_count(ProfDomain::kIpcPort), "count"},
      {"ipc.port_ns_per_frame", per_frame({ProfDomain::kIpcPort}), "ns"},
      {"core.rpc_per_conn", Ratio(c["core.client_rpcs"], conns), "ratio"},
      {"core.queue_wait_p99_us", c["core.queue_wait_p99_us"], "us"},
      {"core.service_p99_us", c["core.service_p99_us"], "us"},
      {"core.migrate_p99_ms", PctMs(o.migrate, 0.99), "ms"},
      {"core.handover_drops", c["core.handover_drops"], "count"},
      {"core.rpc_ns_per_conn", Ratio(dom_ns({ProfDomain::kCoreRpc}), conns), "ns"},
      {"serv.rpc_per_call", Ratio(c["serv.client_rpcs"], calls), "ratio"},
      {"serv.queue_wait_p99_us", c["serv.queue_wait_p99_us"], "us"},
      {"serv.service_p99_us", c["serv.service_p99_us"], "us"},
      {"serv.rpc_ns_per_call", Ratio(dom_ns({ProfDomain::kServRpc}), calls), "ns"},
  };
  for (int op = 0; op < static_cast<int>(ApiOp::kNumOps); op++) {
    const LatencyHistogram& h = api.op[op];
    std::string base = std::string("api.") + ApiOpName(static_cast<ApiOp>(op)) + "_us_";
    m.push_back({base + "p50", h.QuantileMicros(0.5), "us"});
    m.push_back({base + "p99", h.QuantileMicros(0.99), "us"});
    m.push_back({std::string("api.") + ApiOpName(static_cast<ApiOp>(op)) + "_calls",
                 static_cast<double>(h.count()), "count"});
  }
  const double round_trips = rpc ? calls : 0;
  for (const auto& [stage, key] : kStages) {
    const StageRecorder::Cell& cell = stages.cell(stage);
    m.push_back({std::string("stage.") + key + ".virt_us",
                 Ratio(ToMicros(cell.total), round_trips), "us"});
    m.push_back({std::string("stage.") + key + ".host_ns",
                 Ratio(dom_ns({StageProfDomain(stage)}), round_trips), "ns"});
  }
  m.insert(m.end(), {
                        {"proto.msgs", static_cast<double>(o.proto.msgs_in + o.proto.msgs_out),
                         "count"},
                        {"proto.frame_errors", static_cast<double>(o.proto.frame_errors), "count"},
                        {"obs.trace_overhead_pct",
                         100.0 * (Ratio(o.run_s, MedianOf(base, [](const Sample& s) {
                                           return s.run_s;
                                         })) - 1),
                         "%"},
                        {"obs.attributed_pct", rep.attributed_pct(), "%"},
                        {"testbed.hosts", static_cast<double>(o.hosts), "count"},
                        {"gen.late_ms_p99", PctMs(o.late, 0.99), "ms"},
                        {"op_samples", static_cast<double>(o.lat.size()), "count"},
                        {"rtt_p50_ms", rpc ? PctMs(o.lat, 0.5) : 0, "ms"},
                        {"rtt_p99_ms", rpc ? PctMs(o.lat, 0.99) : 0, "ms"},
                        {"connect_p50_ms", PctMs(o.connect, 0.5), "ms"},
                        {"connect_p99_ms", PctMs(o.connect, 0.99), "ms"},
                        {"flow_p50_ms", churn ? PctMs(o.lat, 0.5) : 0, "ms"},
                        {"flow_p99_ms", churn ? PctMs(o.lat, 0.99) : 0, "ms"},
                        {"fail_frac",
                         Ratio(static_cast<double>(o.failed), static_cast<double>(o.attempted)),
                         "ratio"},
                    });

  std::error_code ec;
  std::filesystem::create_directories(a.trace_dir, ec);
  std::string path =
      a.trace_dir + "/" + a.workload + "-seed" + std::to_string(a.seed) + ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu,\n\"metrics\": {", a.workload.c_str(),
                 static_cast<unsigned long long>(a.seed));
    for (size_t i = 0; i < m.size(); i++) {
      std::fprintf(f, "%s\"%s\": %.10g", i == 0 ? "" : ", ", m[i].name.c_str(), m[i].value);
    }
    std::fprintf(f, "},\n\"host_profile\": %s,\n\"spans\": ", RenderHostProfJson(rep).c_str());
    spans.WriteJson(f);
    std::fputs("}\n", f);
    std::fclose(f);
    std::printf("trace: %zu spans written to %s\n", spans.size(), path.c_str());
  } else {
    std::fprintf(stderr, "psdbench: cannot write %s\n", path.c_str());
    return 1;
  }
  PrintSamples(a, Summarize(o), base.size() + 1);
  Emit(o.attempted, o.failed, m);
  return 0;
}

}  // namespace
}  // namespace psd::bench

int main(int argc, char** argv) {
  psd::bench::Args a = psd::bench::Parse(argc, argv);
  psd::bench::Scale scale = psd::bench::ScaleFor(a.smoke);
  return a.trace ? psd::bench::PerLayer(a, scale) : psd::bench::EndToEnd(a, scale);
}
