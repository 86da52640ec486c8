// The benchmark's three workloads over the decomposed stack. Each builds a
// fresh World, runs to completion (Simulator::Stop when the last operation
// finishes), checks its outputs and returns what one run measured.
//
//   stream — one bulk TCP transfer between two Library-SHM-IPF hosts.
//   rpc    — closed-loop pfx-framed RPC callers against one PollWait server,
//            both hosts in the Server placement.
//   churn  — open-loop Poisson connection arrivals from in-kernel client
//            hosts against one Library-SHM-IPF PollWait server, with live
//            migrations mid-run.
#ifndef PSD_PERFBENCH_WORKLOADS_H_
#define PSD_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/spans.h"
#include "src/base/time.h"
#include "src/obs/probe.h"
#include "src/proto/adapter.h"

namespace psd::bench {

// Workload size. The defaults are the measured configuration; --scale smoke
// runs a reduced one.
struct Scale {
  int stream_chunks = 2048;  // 8 KB writes (16 MB)
  int rpc_callers = 16;
  int rpc_calls = 250;       // per caller
  int churn_clients = 256;   // in-kernel client hosts
  int churn_conns = 2400;    // arrivals
  double churn_rate = 40;    // arrivals per virtual second, ~1/3 of capacity
  int churn_migrations = 8;
};

// Observability for one run. All null/false in a measured (untraced) run.
struct Obs {
  SpanLog* spans = nullptr;
  ApiLatency* api = nullptr;         // non-null: route SocketApi calls through TimedApi
  StageRecorder* stages = nullptr;   // Table 4 ledger (rpc)
  bool profile = false;              // HostProfiler window around Simulator::Run
};

struct Outcome {
  // --- virtual clock (deterministic per seed) ---
  uint64_t attempted = 0;  // transfers, calls or connections
  uint64_t failed = 0;
  std::vector<SimDuration> lat;      // headline per-operation latency
  std::vector<SimDuration> connect;  // churn: due time -> connect returned
  std::vector<SimDuration> late;     // churn: how late each arrival started
  std::vector<SimDuration> migrate;  // churn: ReturnToServer + Reacquire
  uint64_t payload_bytes = 0;
  SimDuration payload_time = 0;  // first operation start -> last completion
  SimTime end = 0;               // virtual time Run stopped at
  uint64_t conns = 0;            // connections established
  uint64_t round_trips = 0;      // rpc calls answered
  int hosts = 0;
  ProtoCounters proto;
  // Layer counters read from public accessors before the World dies.
  std::map<std::string, double> counters;

  // --- host clock ---
  double setup_s = 0;
  double run_s = 0;
  double sys_s = 0;  // kernel CPU time during Simulator::Run

  // Correctness gate: empty when every output checked out.
  std::string gate_error;

  // Fingerprint of every virtual quantity above (must repeat per seed).
  uint64_t Digest() const;
};

// Runs workload `name` once. `expect_digest` overrides the stream
// workload's expected content digest (the smoke test feeds a wrong one to
// prove the gate fires).
std::optional<Outcome> RunWorkload(const std::string& name, uint64_t seed, const Scale& scale,
                                   const Obs& obs, std::optional<uint64_t> expect_digest);

}  // namespace psd::bench

#endif  // PSD_PERFBENCH_WORKLOADS_H_
