// Benchmark-side tracing: spans recorded around the calls the benchmark
// makes into the system (World construction, Simulator::Run, every
// SocketApi and adapter call, every migration call), kept in memory and
// written out as JSON when the benchmark exits.
//
// Each span carries its name, virtual and host start/end, the span that
// enclosed it on the same fiber, and a request id (call id or connection
// index, inherited from the parent when the caller does not know it).
#ifndef PSD_PERFBENCH_SPANS_H_
#define PSD_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <unordered_map>
#include <vector>

#include "src/api/socket_api.h"
#include "src/obs/histogram.h"
#include "src/proto/adapter.h"
#include "src/sim/simulator.h"

namespace psd::bench {

class SpanLog {
 public:
  SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

  // Opens a span on the current fiber of `sim` (nullptr: outside any
  // simulation). `req` 0 inherits the enclosing span's request id.
  int Begin(Simulator* sim, const char* name, uint64_t req);
  void End(Simulator* sim, int id);

  size_t size() const { return spans_.size(); }
  // Writes every span as one JSON array.
  void WriteJson(std::FILE* f) const;

 private:
  struct Span {
    const char* name;
    uint64_t req;
    int parent;
    SimTime v_begin;
    SimTime v_end;
    double h_begin_ns;
    double h_end_ns;
  };
  double HostNs() const {
    return std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::unordered_map<const void*, std::vector<int>> open_;  // per-fiber stacks
};

// RAII span; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, Simulator* sim, const char* name, uint64_t req = 0)
      : log_(log), sim_(sim), id_(log != nullptr ? log->Begin(sim, name, req) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->End(sim_, id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  Simulator* sim_;
  int id_;
};

// The SocketApi calls whose virtual latency the traced run reports
// (api.<op>_us_p50 / _p99).
enum class ApiOp { kSend, kRecv, kConnect, kAccept, kClose, kPollWait, kNumOps };
const char* ApiOpName(ApiOp op);

// Per-op virtual latency, shared by every TimedApi of one run.
struct ApiLatency {
  LatencyHistogram op[static_cast<int>(ApiOp::kNumOps)];
};

// A SocketApi that forwards to the placement's API, opening a span around
// every call and recording the virtual duration of the ApiOp calls.
class TimedApi : public SocketApi {
 public:
  TimedApi(SocketApi* inner, Simulator* sim, SpanLog* log, ApiLatency* lat)
      : inner_(inner), sim_(sim), log_(log), lat_(lat) {}

  Result<int> CreateSocket(IpProto proto) override;
  Result<void> Bind(int fd, SockAddrIn local) override;
  Result<void> Listen(int fd, int backlog) override;
  Result<int> Accept(int fd, SockAddrIn* peer) override;
  Result<void> Connect(int fd, SockAddrIn remote) override;
  Result<size_t> Send(int fd, const uint8_t* data, size_t len, const SockAddrIn* to) override;
  Result<size_t> Recv(int fd, uint8_t* out, size_t len, SockAddrIn* from, bool peek) override;
  Result<size_t> SendShared(int fd, std::shared_ptr<const std::vector<uint8_t>> buf, size_t off,
                            size_t len, const SockAddrIn* to) override;
  Result<Chain> RecvChain(int fd, size_t max, SockAddrIn* from) override;
  Result<void> SetOpt(int fd, SockOpt opt, size_t value) override;
  Result<void> Shutdown(int fd, bool rd, bool wr) override;
  Result<void> Close(int fd) override;
  Result<int> Select(SelectFds* fds, SimDuration timeout) override;
  Result<int> PollCreate() override;
  Result<void> PollAdd(int pfd, int fd, uint32_t events) override;
  Result<void> PollRemove(int pfd, int fd) override;
  Result<int> PollWait(int pfd, std::vector<PollEvent>* out, SimDuration timeout) override;
  Result<void> PollClose(int pfd) override;
  SockAddrIn LocalAddr(int fd) override;

 private:
  // Runs `call` inside a span named `name`; records its virtual duration
  // under `op` when op != kNumOps.
  template <typename F>
  auto Timed(const char* name, ApiOp op, F&& call) {
    ScopedSpan span(log_, sim_, name);
    SimTime t0 = sim_->Now();
    auto r = call();
    if (op != ApiOp::kNumOps) {
      lat_->op[static_cast<int>(op)].Record(sim_->Now() - t0);
    }
    return r;
  }

  SocketApi* inner_;
  Simulator* sim_;
  SpanLog* log_;
  ApiLatency* lat_;
};

// A MsgStream that spans every SendMsg/RecvMsg of the stream below it
// (request id: the src/proto/rpc.h call id in the message header). With
// `rtt` set it also records each call's virtual round trip: SendMsg start
// to the next RecvMsg return, which is one call when at most one is
// outstanding.
class TimedMsgStream : public MsgStream {
 public:
  TimedMsgStream(MsgStream* inner, Simulator* sim, SpanLog* log,
                 std::vector<SimDuration>* rtt = nullptr)
      : inner_(inner), sim_(sim), log_(log), rtt_(rtt) {}

  Result<size_t> RecvMsg(uint8_t* out, size_t cap) override;
  Result<void> SendMsg(const uint8_t* data, size_t len) override;

 private:
  MsgStream* inner_;
  Simulator* sim_;
  SpanLog* log_;
  std::vector<SimDuration>* rtt_;
  SimTime sent_at_ = 0;
  int call_span_ = -1;
};

}  // namespace psd::bench

#endif  // PSD_PERFBENCH_SPANS_H_
