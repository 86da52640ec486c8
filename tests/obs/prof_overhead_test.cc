// Profiler overhead tripwire on the udp_blast engine workload — the
// per-packet hot path, where boundary density is highest.
//
// Two costs matter, bounded in two places:
//
//  * Compiled-in-but-idle: every PSD_PROF_SCOPE site costs one static
//    pointer load. That is the "<= 10% wall vs profiler-off" gate, and it
//    compares a normal build against a PSD_OBS_DISABLE_PROF build — two
//    binaries, so it lives in CI (prof-disabled-ab job), not here.
//
//  * Running: exact interval attribution stamps the TSC at every domain
//    boundary (scope push/pop, fiber depart/arrive). udp_blast crosses ~85
//    boundaries per packet, so a running profiler costs ~40% wall on the
//    register-switch engine — a median ~1.4x ratio on a 4-core 2.1 GHz
//    Xeon VM, mostly rdtsc latency (~20-30 ns there) times boundary count.
//    That is by design acceptable: bench trials are never profiled
//    (host_profile rows come from one extra run), psd prof/trace runs are
//    dedicated, and relative domain shares stay faithful because the stamp
//    cost spreads uniformly over boundaries. This test bounds the running cost
//    at 1.5x as a regression tripwire: it catches hot-path mistakes (an
//    earlier version paid two stamps on every fast-resume bail and clocked
//    73% overhead; this test is what flagged it, and again when cheaper
//    fiber switches exposed the drain's scope on paths that run no
//    closure) without flaking on loaded CI machines.
//
// Methodology mirrors bench_engine: min-of-trials on both sides (min, not
// mean, because host timing noise is strictly additive), with a warmup run
// first so page cache and allocator state don't bias the first side
// measured.
#include <gtest/gtest.h>

#include <algorithm>

#include "bench/common/engine_workloads.h"
#include "src/cost/machine_profile.h"
#include "src/obs/prof.h"

namespace psd {
namespace {

#ifndef PSD_OBS_DISABLE_PROF

constexpr double kScale = 0.25;
constexpr int kTrials = 3;
constexpr double kMaxRunningOverhead = 1.5;

double MinWallNs(bool profiled) {
  MachineProfile mp = MachineProfile::DecStation5000();
  double best = 0;
  for (int t = 0; t < kTrials; t++) {
    if (profiled) {
      HostProfiler::Get().Start();
    }
    EngineRunOutcome out = RunEngineUdpBlast(mp, kScale);
    if (profiled) {
      HostProfiler::Get().Stop();
    }
    best = t == 0 ? out.wall_ns : std::min(best, out.wall_ns);
  }
  return best;
}

TEST(HostProfOverhead, UdpBlastRunningCostStaysBounded) {
  RunEngineUdpBlast(MachineProfile::DecStation5000(), kScale);  // warmup
  double off_ns = MinWallNs(false);
  double on_ns = MinWallNs(true);
  ASSERT_GT(off_ns, 0.0);
  EXPECT_LE(on_ns, off_ns * kMaxRunningOverhead)
      << "profiled udp_blast wall " << on_ns / 1e6 << " ms vs unprofiled " << off_ns / 1e6
      << " ms (" << (on_ns / off_ns - 1.0) * 100.0
      << "% overhead): a profiler hot-path regression, see the tripwire rationale above";
}

#endif  // PSD_OBS_DISABLE_PROF

}  // namespace
}  // namespace psd
