// psd pktwalk: replay a protolat workload and print packet life stories.
//
// Every frame gets a packet id at its origin (src/obs/journey.h); pktwalk
// runs the workload with the journey recorder on and then prints, for each
// packet, its hop-by-hop path through wire / kernel / filter / stack and
// its terminal disposition — delivered, consumed, dropped(reason), or
// in-flight-at-exit — plus the unified drop-reason ledger.
//
// Defaults: --config library-shm-ipf --proto tcp --size 64 --trials 20.
//   --pkt N       only packet id N
//   --lost-only   only packets that died or never finished
//   --drops       only the drop ledger (totals + recent events)
#include <cstdio>
#include <string>

#include "bench/common/workloads.h"
#include "src/obs/journey.h"
#include "tools/psd.h"

namespace psd {

int PktwalkMain(int argc, char** argv) {
  Config config = Config::kLibraryShmIpf;
  ProtolatOptions opt;
  opt.proto = IpProto::kTcp;
  opt.msg_size = 64;
  opt.trials = 20;
  double loss = 0.0;
  uint64_t seed = 1;
  bool json = false;
  PktwalkFilter filter;
  FlagSet flags("pktwalk", {
                               {"--config", kConfigMetavar, &config},
                               {"--proto", "udp|tcp", &opt.proto},
                               {"--size", "BYTES", &opt.msg_size},
                               {"--trials", "N", &opt.trials},
                               {"--loss", "RATE", &loss},
                               {"--seed", "N", &seed},
                               {"--pkt", "N", &filter.pkt},
                               {"--drops", &filter.drops_only},
                               {"--lost-only", &filter.lost_only},
                               {"--json", &json},
                           });
  if (!flags.Parse(argc, argv)) {
    return 2;
  }

  // One run, accounted from zero. Size the hop ring to hold every hop of
  // the run so journeys are complete, not ring-truncated.
  DropLedger::Get().Reset();
  PacketJourney::Get().Reset();
  PacketJourney::Get().set_hop_capacity(1 << 20);
  DropLedger::Get().set_ring_capacity(1 << 16);

  ProtolatHooks hooks;
  hooks.on_world = [&](World& w) {
    if (loss > 0) {
      FaultPlan plan;
      plan.loss_rate = loss;
      plan.seed = seed;
      w.wire().SetFaults(plan);
    }
  };
  double ms = RunProtolatTraced(config, MachineProfile::DecStation5000(), opt, hooks);
  if (ms < 0) {
    fprintf(stderr, "pktwalk: protolat run did not complete\n");
    return 1;
  }

  std::string out = json ? PktwalkJson(filter) : PktwalkText(filter);
  fputs(out.c_str(), stdout);
  return 0;
}

}  // namespace psd
