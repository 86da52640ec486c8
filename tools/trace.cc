// psd trace: replay an instrumented protolat run and write the span
// stream as chrome://tracing JSON (load the file in chrome://tracing or
// https://ui.perfetto.dev to see the per-layer breakdown on a timeline).
//
// Defaults: --config library-shm-ipf --proto udp --size 1 --trials 10
//           --out trace.json
//
// --host-prof attaches the host wall-clock profiler (src/obs/prof.h) and
// merges its span buffer into the trace as an extra "host wall clock"
// process group — virtual swimlanes and real engine time side by side.
#include <cstdio>
#include <fstream>
#include <string>

#include "bench/common/workloads.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/prof.h"
#include "src/obs/stats.h"
#include "src/obs/trace.h"
#include "tools/psd.h"

namespace psd {

int TraceMain(int argc, char** argv) {
  Config config = Config::kLibraryShmIpf;
  ProtolatOptions opt;
  opt.proto = IpProto::kUdp;
  opt.msg_size = 1;
  opt.trials = 10;
  std::string out_path = "trace.json";
  bool dump_stats = false;
  bool host_prof = false;
  FlagSet flags("trace", {
                             {"--config", kConfigMetavar, &config},
                             {"--proto", "udp|tcp", &opt.proto},
                             {"--size", "BYTES", &opt.msg_size},
                             {"--trials", "N", &opt.trials},
                             {"--out", "FILE", &out_path},
                             {"--stats", &dump_stats},
                             {"--host-prof", &host_prof},
                         });
  if (!flags.Parse(argc, argv)) {
    return 2;
  }

  Tracer tracer;
  ChromeTraceSink sink;
  tracer.AddSink(&sink);

  ProtolatHooks hooks;
  hooks.tracer = &tracer;
  std::string stats_dump;
  if (dump_stats) {
    hooks.on_done = [&stats_dump](World& w) {
      StatsRegistry reg;
      w.ExportStats(0, &reg);
      w.ExportStats(1, &reg);
      w.ExportWireStats(&reg);
      stats_dump = reg.Dump();
    };
  }

#ifndef PSD_OBS_DISABLE_PROF
  if (host_prof) {
    HostProfiler::Get().RecordSpans(1 << 20);
    HostProfiler::Get().Start();
  }
#endif
  double rtt_ms = RunProtolatTraced(config, MachineProfile::DecStation5000(), opt, hooks);
#ifndef PSD_OBS_DISABLE_PROF
  if (host_prof) {
    HostProfiler::Get().Stop();
    HostProfReport rep = HostProfiler::Get().Snapshot();
    sink.AddHostSpans(rep);
    printf("host profile: %.1f ms wall, %.1f%% attributed, %zu host spans merged\n",
           rep.wall_ns / 1e6, rep.attributed_pct(), rep.spans.size());
  }
#else
  if (host_prof) {
    fprintf(stderr, "--host-prof ignored: built with PSD_OBS_DISABLE_PROF\n");
  }
#endif
  if (rtt_ms < 0) {
    fprintf(stderr, "protolat run did not complete\n");
    return 1;
  }
  if (sink.span_count() == 0) {
    fprintf(stderr, "trace is empty: no spans recorded (is tracing compiled out?)\n");
    return 1;
  }

  std::ofstream os(out_path, std::ios::binary);
  if (!os) {
    fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  sink.WriteJson(os);
  os.flush();
  if (!os) {
    fprintf(stderr, "write to %s failed (disk full or path not writable?)\n", out_path.c_str());
    return 1;
  }
  os.close();

  printf("%s %s %zuB x%d: rtt %.3f ms, %zu events -> %s\n", ConfigName(config),
         opt.proto == IpProto::kUdp ? "udp" : "tcp", opt.msg_size, opt.trials, rtt_ms,
         sink.span_count(), out_path.c_str());
  if (dump_stats) {
    fputs(stats_dump.c_str(), stdout);
  }
  return 0;
}

}  // namespace psd
