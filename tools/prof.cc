// psd prof: host wall-clock profiler over the canonical engine workloads.
// Runs one workload with the HostProfiler attached and renders where the
// engine's real time went:
//
//   psd prof --workload=udp_blast             per-domain table (default)
//   psd prof --workload=tcp_stream --json     machine-readable report
//   psd prof --workload=churn_256 --flame     collapsed stacks; feed to
//                                             flamegraph.pl or speedscope
//   psd prof --workload=udp_blast --scale=0.1 shrunk run for smoke tests
//   psd prof ... --min-attributed=90          exit 4 if attribution < 90%
//                                             (the CI steering gate)
//
// The profiled run's virtual quantities are printed alongside so a reader
// can check them against bench_engine's reference row: the profiler must
// not perturb simulation behavior, only observe its host cost.
#include <cstdio>
#include <string>

#include "bench/common/engine_workloads.h"
#include "src/cost/machine_profile.h"
#include "src/obs/prof.h"
#include "tools/psd.h"

namespace psd {

int ProfMain(int argc, char** argv) {
  std::string workload = "udp_blast";
  double scale = 1.0;
  double min_attributed = -1.0;
  bool json = false;
  bool flame = false;
  FlagSet flags("prof", {
                            {"--workload", "tcp_stream|udp_blast|churn_256", &workload},
                            {"--scale", "F", &scale},
                            {"--json", &json},
                            {"--flame", &flame},
                            {"--min-attributed", "PCT", &min_attributed},
                        });
  if (!flags.Parse(argc, argv)) {
    return 2;
  }
  EngineWorkloadFn fn = FindEngineWorkload(workload.c_str());
  if (fn == nullptr || scale <= 0 || scale > 1.0) {
    return flags.Usage();
  }

#ifdef PSD_OBS_DISABLE_PROF
  std::fprintf(stderr, "psdprof: built with PSD_OBS_DISABLE_PROF; no host profile available\n");
  EngineRunOutcome run = fn(MachineProfile::DecStation5000(), scale);
  std::printf("%s: %llu frames, %llu events, %.1f ms wall (profiler compiled out)\n",
              workload.c_str(),
              static_cast<unsigned long long>(run.frames),
              static_cast<unsigned long long>(run.events), run.wall_ns / 1e6);
  return 0;
#else
  HostProfiler& hp = HostProfiler::Get();
  hp.Start();
  EngineRunOutcome run = fn(MachineProfile::DecStation5000(), scale);
  hp.Stop();
  HostProfReport rep = hp.Snapshot();

  if (flame) {
    std::fputs(RenderHostProfFlame(rep).c_str(), stdout);
  } else if (json) {
    std::fputs(RenderHostProfJson(rep).c_str(), stdout);
  } else {
    std::printf("-- psdprof: %s (scale %g) --\n", workload.c_str(), scale);
    std::printf("%llu frames, %llu events, %llu switches, virtual end %.3f s\n",
                static_cast<unsigned long long>(run.frames),
                static_cast<unsigned long long>(run.events),
                static_cast<unsigned long long>(run.switches),
                static_cast<double>(run.virtual_end) / 1e9);
    std::fputs(RenderHostProfTable(rep).c_str(), stdout);
  }
  if (min_attributed >= 0 && rep.attributed_pct() < min_attributed) {
    std::fprintf(stderr, "psdprof: attribution %.1f%% below floor %.1f%%\n", rep.attributed_pct(),
                 min_attributed);
    return 4;
  }
  return 0;
#endif
}

}  // namespace psd
