#include "perfbench/workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <unordered_map>

#include "src/base/rng.h"
#include "src/mbuf/mbuf.h"
#include "src/netsim/frame_pool.h"
#include "src/obs/journey.h"
#include "src/obs/metastate.h"
#include "src/obs/prof.h"
#include "src/obs/stats.h"
#include "src/proto/framing.h"
#include "src/proto/rpc.h"
#include "src/sock/pollset.h"
#include "src/testbed/world.h"

namespace psd::bench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;
constexpr uint16_t kPort = 5001;

uint64_t Fnv(uint64_t h, const uint8_t* p, size_t n) {
  for (size_t i = 0; i < n; i++) {
    h = (h ^ p[i]) * kFnvPrime;
  }
  return h;
}

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double SysSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_stime.tv_sec) + static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
}

// Quantile u in (0, 1) of the bounded Pareto flow-size law bench_c10k
// draws from (alpha 1.2, floor `lo`, capped at `hi`).
size_t ParetoQuantile(double u, size_t lo, size_t hi) {
  double size = static_cast<double>(lo) * std::pow(1.0 - u, -1.0 / 1.2);
  return std::min(hi, static_cast<size_t>(size));
}

// Process-wide pool counters move across runs; the per-run share is the
// difference of two snapshots.
struct PoolSnap {
  uint64_t frame_misses = FramePool::misses();
  uint64_t mbuf_hits = MbufPool::mbuf_hits() + MbufPool::cluster_hits();
  uint64_t mbuf_misses = MbufPool::mbuf_misses() + MbufPool::cluster_misses();
};

// One run's World plus the SocketApi each host's application uses: the
// placement's own, or a TimedApi over it in the traced run.
class Bed {
 public:
  Bed(Config config, int hosts, int placement_hosts, const Obs& obs, Outcome* out)
      : obs_(obs), out_(out), t0_(Clock::now()) {
    ScopedSpan span(obs.spans, nullptr, "world.build");
    world_ = std::make_unique<World>(config, MachineProfile::DecStation5000(), hosts,
                                     /*pio_nic=*/false, placement_hosts);
    world_->SeedStaticArp();
    out->hosts = hosts;
    if (obs.api != nullptr) {
      for (int i = 0; i < hosts; i++) {
        timed_.push_back(
            std::make_unique<TimedApi>(world_->api(i), &world_->sim(), obs.spans, obs.api));
      }
    }
    if (obs.stages != nullptr) {
      tracer_.AddSink(obs.stages);
      for (int i = 0; i < hosts; i++) {
        world_->AttachTracer(i, &tracer_);
      }
    }
  }

  World& w() { return *world_; }
  Simulator& sim() { return world_->sim(); }
  SocketApi* api(int i) { return timed_.empty() ? world_->api(i) : timed_[i].get(); }
  void Spawn(int i, const std::string& name, std::function<void()> body) {
    world_->SpawnApp(i, name, std::move(body));
  }

  // Ends set-up (World, static ARP, application fibers) and runs the
  // simulation until an application calls Stop or `horizon` passes.
  void Run(SimTime horizon) {
    out_->setup_s = Since(t0_);
    ScopedSpan span(obs_.spans, nullptr, "sim.run");
    double sys0 = SysSeconds();
    Clock::time_point t0 = Clock::now();
    if (obs_.profile) {
      HostProfiler::Get().Start();
    }
    world_->sim().Run(horizon);
    if (obs_.profile) {
      HostProfiler::Get().Stop();
    }
    out_->run_s = Since(t0);
    out_->sys_s = SysSeconds() - sys0;
    out_->end = world_->sim().Now();
  }

  // Reads the layer counters every workload reports; `server` is the host
  // whose OS server / UX server books are read, `pfd` its poll set.
  void Collect(int server, int pfd) {
    World& w = *world_;
    auto& c = out_->counters;
    StatsRegistry reg;
    for (int i = 0; i < out_->hosts; i++) {
      std::vector<Stack*> stacks = w.AllStacks(i);
      for (size_t k = 0; k < stacks.size(); k++) {
        char prefix[48];
        std::snprintf(prefix, sizeof prefix, "h%d.%zu.", i, k);
        stacks[k]->ExportStats(&reg, prefix);
      }
    }
    auto ends_with = [](const std::string& s, const char* suffix) {
      size_t n = std::strlen(suffix);
      return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
    };
    for (const StatsRegistry::Entry& e : reg.Snapshot()) {
      static const std::pair<const char*, const char*> kSums[] = {
          {".tcp.retransmits", "inet.retransmits"},
          {".tcp.acks_delayed", "inet.acks_delayed"},
          {".sock.wakeups", "sock.wakeups"},
          {".sock.recv_blocks", "sock.recv_blocks"},
      };
      for (const auto& [suffix, name] : kSums) {
        if (ends_with(e.name, suffix)) {
          c[name] += static_cast<double>(e.value);
        }
      }
    }
    reg.Reset();
    c["sim.events"] = static_cast<double>(w.sim().events_executed());
    c["sim.switches"] = static_cast<double>(w.sim().thread_switches());
    c["netsim.frames"] = static_cast<double>(w.wire().frames_carried());
    const DropLedger& dl = DropLedger::Get();
    c["kern.queue_drops"] = static_cast<double>(dl.total(DropReason::kQueueOverflow) +
                                                dl.total(DropReason::kNicRingOverflow));
    c["inet.listen_overflows"] = static_cast<double>(dl.total(DropReason::kTcpListenOverflow));
    c["core.handover_drops"] = static_cast<double>(dl.total(DropReason::kMigrationWindow));

    PollSet* set = nullptr;
    if (pfd >= 0 && w.kernel_node(server) != nullptr) {
      set = w.kernel_node(server)->poll_set(pfd);
    } else if (pfd >= 0 && w.ux_server(server) != nullptr) {
      set = w.ux_server(server)->poll_set(static_cast<uint64_t>(pfd));
    }
    c["sock.poll_edges"] = set != nullptr ? static_cast<double>(set->edges()) : 0;
    c["sock.poll_wakeups"] = set != nullptr ? static_cast<double>(set->wakeups()) : 0;

    // Server-side RPC books. Ops whose service time is a parked wait
    // (accept, select, poll wait) stay out of the service percentile.
    auto merge = [&](const RpcOpRecorder& rec, auto name_of, const char* layer) {
      LatencyHistogram queue;
      LatencyHistogram service;
      for (size_t i = 0; i < rec.slots(); i++) {
        const RpcOpStats& st = rec.op(i);
        queue.Merge(st.queue_wait);
        std::string op = name_of(i);
        if (op.find("accept") == std::string::npos && op.find("select") == std::string::npos &&
            op.find("poll_wait") == std::string::npos) {
          service.Merge(st.service);
        }
      }
      c[std::string(layer) + ".queue_wait_p99_us"] = queue.QuantileMicros(0.99);
      c[std::string(layer) + ".service_p99_us"] = service.QuantileMicros(0.99);
    };
    if (w.net_server(server) != nullptr) {
      merge(
          w.net_server(server)->MergedRpcStats(),
          [](size_t i) { return std::string(ProxyOpName(ProxyOpFromSlot(static_cast<int>(i)))); },
          "core");
    }
    if (w.ux_server(server) != nullptr) {
      merge(
          w.ux_server(server)->MergedRpcStats(),
          [](size_t i) {
            return std::string(ServOpName(static_cast<ServOp>(kServOpFirst + i)));
          },
          "serv");
    }
    // Client-side RPC totals: libraries calling their OS server, UX
    // placements calling the UNIX server.
    for (int i = 0; i < out_->hosts; i++) {
      if (w.library(i) != nullptr) {
        c["core.client_rpcs"] += static_cast<double>(w.library(i)->rpc_calls().total());
      }
      if (w.ux_node(i) != nullptr) {
        c["serv.client_rpcs"] += static_cast<double>(w.ux_node(i)->rpc_calls().total());
      }
    }

    PoolSnap now;
    c["netsim.frame_pool_misses"] = static_cast<double>(now.frame_misses - pools_.frame_misses);
    c["mbuf.pool_hits"] = static_cast<double>(now.mbuf_hits - pools_.mbuf_hits);
    c["mbuf.pool_misses"] = static_cast<double>(now.mbuf_misses - pools_.mbuf_misses);
  }

 private:
  const Obs& obs_;
  Outcome* out_;
  Clock::time_point t0_;
  PoolSnap pools_;
  Tracer tracer_;
  // Declared before the World so TimedApis outlive the fibers calling them.
  std::vector<std::unique_ptr<TimedApi>> timed_;
  std::unique_ptr<World> world_;
};

// --- stream -----------------------------------------------------------------

constexpr size_t kChunk = 8192;
constexpr size_t kChunkJitter = 1024;  // writes are kChunk +- up to this, seeded

Outcome RunStream(uint64_t seed, const Scale& sc, const Obs& obs,
                  std::optional<uint64_t> expect_digest) {
  Outcome o;
  o.attempted = 1;
  const size_t chunks = static_cast<size_t>(sc.stream_chunks);
  // Write sizes are seeded around ttcp's 8 KB, so where writes end within
  // segments (and so each write's latency) varies by seed.
  std::vector<size_t> ends(chunks);  // byte offset just past each write
  Rng sizes = Rng::Stream(seed, 2);
  for (size_t i = 0, end = 0; i < chunks; i++) {
    end += kChunk - kChunkJitter + sizes.Below(2 * kChunkJitter + 1);
    ends[i] = end;
  }
  const size_t total = ends.back();
  std::vector<uint8_t> content(total);
  Rng gen = Rng::Stream(seed, 1);
  for (uint8_t& b : content) {
    b = static_cast<uint8_t>(gen.Next());
  }
  const uint64_t want = expect_digest.value_or(Fnv(kFnvOffset, content.data(), total));

  std::vector<SimTime> sent_at(chunks, 0);
  SimTime first_send = 0;
  SimTime last_recv = 0;
  uint64_t got = 0;
  uint64_t digest = kFnvOffset;

  Bed bed(Config::kLibraryShmIpf, 2, -1, obs, &o);
  Simulator& sim = bed.sim();
  bed.Spawn(1, "sink", [&] {
    SocketApi* api = bed.api(1);
    int lfd = *api->CreateSocket(IpProto::kTcp);
    api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), kPort});
    api->SetOpt(lfd, SockOpt::kRcvBuf, 24 * 1024);
    api->Listen(lfd, 1);
    Result<int> fd = api->Accept(lfd, nullptr);
    if (fd.ok()) {
      o.conns++;
      std::vector<uint8_t> buf(kChunk + kChunkJitter);
      size_t next = 0;
      for (;;) {
        Result<size_t> n = api->Recv(*fd, buf.data(), buf.size(), nullptr, false);
        if (!n.ok() || *n == 0) {
          break;
        }
        digest = Fnv(digest, buf.data(), *n);
        got += *n;
        while (next < chunks && got >= ends[next]) {
          o.lat.push_back(sim.Now() - sent_at[next++]);
        }
      }
      last_recv = sim.Now();
      api->Close(*fd);
    }
    api->Close(lfd);
    sim.Stop();
  });
  bed.Spawn(0, "source", [&] {
    SocketApi* api = bed.api(0);
    sim.current_thread()->SleepFor(Millis(5));
    int fd = *api->CreateSocket(IpProto::kTcp);
    api->SetOpt(fd, SockOpt::kSndBuf, 24 * 1024);
    if (!api->Connect(fd, SockAddrIn{bed.w().addr(1), kPort}).ok()) {
      api->Close(fd);
      return;
    }
    first_send = sim.Now();
    auto write = [&](size_t from, size_t len) {
      for (size_t off = 0; off < len;) {
        Result<size_t> n = api->Send(fd, content.data() + from + off, len - off);
        if (!n.ok()) {
          return false;
        }
        off += *n;
      }
      return true;
    };
    bool ok = true;
    for (size_t i = 0; ok && i < chunks; i++) {
      sent_at[i] = sim.Now();
      size_t begin = i == 0 ? 0 : ends[i - 1];
      ok = write(begin, ends[i] - begin);
    }
    api->Close(fd);
  });
  bed.Run(Seconds(900));
  bed.Collect(1, -1);

  o.payload_bytes = got;
  o.payload_time = last_recv - first_send;
  if (got != total || digest != want) {
    o.failed = 1;
    char msg[160];
    std::snprintf(msg, sizeof msg,
                  "stream: sink got %llu of %zu bytes, digest %016llx, expected %016llx",
                  static_cast<unsigned long long>(got), total,
                  static_cast<unsigned long long>(digest), static_cast<unsigned long long>(want));
    o.gate_error = msg;
  }
  return o;
}

// --- rpc --------------------------------------------------------------------

constexpr size_t kRpcMaxPayload = 1024;

// Serves src/proto/rpc.h requests on every connection of one PollWait
// loop: each readable connection yields one framed request, answered with
// the payload transformed as RpcServeLoop does. Returns when `callers`
// connections have closed.
void RpcServer(SocketApi* api, Simulator* sim, SpanLog* spans, int callers, ProtoCounters* pc,
               std::string* error) {
  int lfd = *api->CreateSocket(IpProto::kTcp);
  api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), kPort});
  api->Listen(lfd, 2 * callers);
  int pfd = *api->PollCreate();
  api->PollAdd(pfd, lfd, kPollEventIn);
  struct Conn {
    std::unique_ptr<SockByteStream> bytes;
    std::unique_ptr<PfxStream> pfx;
    std::unique_ptr<TimedMsgStream> timed;
  };
  std::unordered_map<int, Conn> conns;
  std::vector<PollEvent> events;
  std::vector<uint8_t> buf(kRpcHeaderLen + kRpcMaxPayload);
  int closed = 0;
  while (closed < callers) {
    Result<int> n = api->PollWait(pfd, &events, Seconds(60));
    if (!n.ok() || *n == 0) {
      *error = "rpc: server PollWait returned no events";
      return;
    }
    for (const PollEvent& ev : events) {
      if (ev.fd == lfd) {
        Result<int> cfd = api->Accept(lfd, nullptr);
        if (cfd.ok()) {
          api->SetOpt(*cfd, SockOpt::kNoDelay, 1);
          api->PollAdd(pfd, *cfd, kPollEventIn);
          Conn& c = conns[*cfd];
          c.bytes = std::make_unique<SockByteStream>(api, *cfd);
          c.pfx = std::make_unique<PfxStream>(c.bytes.get(), kRpcHeaderLen + kRpcMaxPayload, pc);
          c.timed = std::make_unique<TimedMsgStream>(c.pfx.get(), sim, spans);
        }
        continue;
      }
      auto it = conns.find(ev.fd);
      if (it == conns.end()) {
        continue;
      }
      Result<size_t> got = it->second.timed->RecvMsg(buf.data(), buf.size());
      bool ok = got.ok() && *got >= kRpcHeaderLen && buf[8] == kRpcRequest;
      if (ok) {
        for (size_t i = kRpcHeaderLen; i < *got; i++) {
          buf[i] ^= kRpcTransform;
        }
        buf[8] = kRpcResponse;
        ok = it->second.timed->SendMsg(buf.data(), *got).ok();
        pc->rpc_replies += ok ? 1 : 0;
      }
      if (!ok) {
        if (!got.ok() && got.error() != Err::kEof) {
          *error = "rpc: server framing error";
        }
        api->Close(ev.fd);  // close drops the poll registration
        conns.erase(it);
        closed++;
      }
    }
  }
  api->Close(lfd);
}

Outcome RunRpc(uint64_t seed, const Scale& sc, const Obs& obs) {
  Outcome o;
  const int callers = sc.rpc_callers;
  o.attempted = static_cast<uint64_t>(callers) * static_cast<uint64_t>(sc.rpc_calls);
  ProtoCounters client_pc;
  ProtoCounters server_pc;
  std::string server_error;
  int done = 0;
  uint64_t bad = 0;
  SimTime first_call = kTimeNever;
  SimTime last_reply = 0;

  Bed bed(Config::kServer, 2, -1, obs, &o);
  Simulator& sim = bed.sim();
  bed.Spawn(1, "rpc-server", [&] {
    RpcServer(bed.api(1), &sim, obs.spans, callers, &server_pc, &server_error);
  });
  for (int c = 0; c < callers; c++) {
    bed.Spawn(0, "caller" + std::to_string(c), [&, c] {
      SocketApi* api = bed.api(0);
      sim.current_thread()->SleepFor(Millis(5));
      int fd = *api->CreateSocket(IpProto::kTcp);
      api->SetOpt(fd, SockOpt::kNoDelay, 1);
      if (api->Connect(fd, SockAddrIn{bed.w().addr(1), kPort}).ok()) {
        o.conns++;
        SockByteStream bytes(api, fd);
        PfxStream pfx(&bytes, kRpcHeaderLen + kRpcMaxPayload, &client_pc);
        TimedMsgStream timed(&pfx, &sim, obs.spans, &o.lat);
        first_call = std::min(first_call, sim.Now());
        RpcClientOutcome r =
            RpcRunPipelined(&timed, Rng::Stream(seed, 100 + static_cast<uint64_t>(c)).Next(),
                            static_cast<uint64_t>(c) + 1, sc.rpc_calls, /*window=*/1,
                            /*min_payload=*/1, kRpcMaxPayload, &client_pc);
        o.round_trips += r.acked;
        bad += r.id_mismatches + r.bad_payloads;
        last_reply = std::max(last_reply, sim.Now());
      }
      api->Close(fd);
      if (++done == callers) {
        sim.Stop();
      }
    });
  }
  bed.Run(Seconds(3600));
  bed.Collect(1, -1);

  o.failed = o.attempted - std::min(o.attempted, o.round_trips);
  o.payload_bytes = client_pc.bytes_out + client_pc.bytes_in;
  o.payload_time = last_reply > first_call ? last_reply - first_call : 0;
  o.proto = client_pc;
  o.proto.msgs_in += server_pc.msgs_in;
  o.proto.msgs_out += server_pc.msgs_out;
  o.proto.frame_errors += server_pc.frame_errors;
  if (bad != 0) {
    o.gate_error =
        "rpc: " + std::to_string(bad) + " replies failed the id-bijection or content check";
  } else if (!server_error.empty()) {
    o.gate_error = server_error;
  } else if (server_pc.rpc_replies != o.round_trips) {
    o.gate_error = "rpc: server answered " + std::to_string(server_pc.rpc_replies) +
                   " calls, callers validated " + std::to_string(o.round_trips);
  }
  return o;
}

// --- churn ------------------------------------------------------------------

constexpr size_t kFlowMin = 256;
constexpr size_t kFlowMax = 32 * 1024;

struct Arrival {
  SimTime due = 0;
  size_t size = 0;
  uint64_t digest = 0;  // FNV of the whole flow
};

// Flow bytes: the 8-byte arrival index, then a stream seeded per arrival.
void FlowBytes(uint64_t seed, uint64_t index, size_t size, std::vector<uint8_t>* out) {
  out->resize(size);
  std::memcpy(out->data(), &index, 8);
  Rng gen = Rng::Stream(seed, 1000 + index);
  for (size_t i = 8; i < size; i++) {
    (*out)[i] = static_cast<uint8_t>(gen.Next());
  }
}

Outcome RunChurn(uint64_t seed, const Scale& sc, const Obs& obs) {
  Outcome o;
  const int clients = sc.churn_clients;
  const size_t n = static_cast<size_t>(sc.churn_conns);
  o.attempted = n;

  // Poisson arrivals at churn_rate, conditioned on n of them in the window
  // [0, n / rate): sorted uniform due times. Flow sizes are the n
  // stratified quantiles of the bounded Pareto law in seeded order, so
  // every seed offers the same bytes and only their timing varies.
  std::vector<Arrival> arrivals(n);
  {
    Rng when = Rng::Stream(seed, 3);
    Rng order = Rng::Stream(seed, 4);
    const double window = static_cast<double>(n) / sc.churn_rate;
    std::vector<double> due(n);
    std::vector<size_t> sizes(n);
    for (size_t i = 0; i < n; i++) {
      due[i] = window * static_cast<double>(when.Next() >> 11) / 9007199254740992.0;
      sizes[i] = ParetoQuantile((static_cast<double>(i) + 0.5) / static_cast<double>(n),
                                kFlowMin, kFlowMax);
    }
    std::sort(due.begin(), due.end());
    for (size_t i = n; i > 1; i--) {
      std::swap(sizes[i - 1], sizes[order.Below(i)]);
    }
    std::vector<uint8_t> bytes;
    for (size_t i = 0; i < n; i++) {
      arrivals[i].due = Millis(50) + static_cast<SimTime>(due[i] * 1e9);
      arrivals[i].size = sizes[i];
      FlowBytes(seed, i, arrivals[i].size, &bytes);
      arrivals[i].digest = Fnv(kFnvOffset, bytes.data(), bytes.size());
    }
  }

  size_t resolved = 0;
  uint64_t mismatched = 0;
  uint64_t migrate_failures = 0;
  int server_pfd = -1;
  const size_t migrations = static_cast<size_t>(sc.churn_migrations);
  const size_t migrate_stride = std::max<size_t>(1, n / (migrations + 1));

  Bed bed(Config::kLibraryShmIpf, 1 + clients, /*placement_hosts=*/1, obs, &o);
  Simulator& sim = bed.sim();
  auto resolve = [&] {
    if (++resolved == n) {
      sim.Stop();
    }
  };

  bed.Spawn(0, "churn-server", [&] {
    SocketApi* api = bed.api(0);
    LibraryNode* lib = bed.w().library_node(0);
    int lfd = *api->CreateSocket(IpProto::kTcp);
    api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), kPort});
    api->SetOpt(lfd, SockOpt::kRcvBuf, 16 * 1024);
    api->Listen(lfd, 128);
    int pfd = *api->PollCreate();
    server_pfd = pfd;
    api->PollAdd(pfd, lfd, kPollEventIn);
    struct Flow {
      uint64_t bytes = 0;
      uint64_t digest = kFnvOffset;
      uint64_t index = 0;
    };
    std::unordered_map<int, Flow> flows;
    std::vector<PollEvent> events;
    std::vector<uint8_t> buf(8192);
    uint64_t accepts = 0;
    for (;;) {
      Result<int> got_events = api->PollWait(pfd, &events, Seconds(120));
      if (!got_events.ok() || *got_events == 0) {
        break;
      }
      for (const PollEvent& ev : events) {
        if (ev.fd == lfd) {
          Result<int> cfd = api->Accept(lfd, nullptr);
          if (!cfd.ok()) {
            continue;
          }
          accepts++;
          o.conns++;
          api->PollAdd(pfd, *cfd, kPollEventIn);
          flows[*cfd] = Flow{};
          if (o.migrate.size() < migrations && accepts % migrate_stride == 0) {
            // Live migration under load: bounce the fresh connection to the OS
            // server and back while its client is mid-flow.
            ScopedSpan span(obs.spans, &sim, "core.migrate", accepts);
            SimTime m0 = sim.Now();
            bool ok;
            {
              ScopedSpan out(obs.spans, &sim, "lib.return_to_server");
              ok = lib->ReturnToServer(*cfd).ok();
            }
            if (ok) {
              ScopedSpan in(obs.spans, &sim, "lib.reacquire");
              ok = lib->Reacquire(*cfd).ok();
            }
            if (ok) {
              o.migrate.push_back(sim.Now() - m0);
            } else {
              migrate_failures++;
            }
          }
          continue;
        }
        auto it = flows.find(ev.fd);
        if (it == flows.end()) {
          continue;
        }
        Flow& f = it->second;
        Result<size_t> got = api->Recv(ev.fd, buf.data(), buf.size(), nullptr, false);
        if (got.ok() && *got > 0) {
          for (size_t i = 0; i < *got; i++) {
            if (f.bytes + i < 8) {
              f.index |= static_cast<uint64_t>(buf[i]) << (8 * (f.bytes + i));
            }
          }
          f.digest = Fnv(f.digest, buf.data(), *got);
          f.bytes += *got;
          continue;
        }
        // EOF (or reset): the flow is over; reconcile it against its books.
        bool whole = got.ok() && f.index < n && f.bytes == arrivals[f.index].size &&
                     f.digest == arrivals[f.index].digest;
        if (whole) {
          o.lat.push_back(sim.Now() - arrivals[f.index].due);
          o.payload_bytes += f.bytes;
          o.payload_time = sim.Now() - arrivals[0].due;
        } else if (got.ok()) {
          mismatched++;
        }
        if (!whole) {
          o.failed++;
        }
        api->Close(ev.fd);
        flows.erase(it);
        resolve();
      }
    }
  });

  for (int c = 0; c < clients; c++) {
    bed.Spawn(1 + c, "client" + std::to_string(c), [&, c] {
      SocketApi* api = bed.api(1 + c);
      std::vector<uint8_t> bytes;
      for (size_t i = static_cast<size_t>(c); i < n; i += static_cast<size_t>(clients)) {
        const Arrival& a = arrivals[i];
        if (sim.Now() < a.due) {
          sim.current_thread()->SleepUntil(a.due);
        }
        o.late.push_back(sim.Now() - a.due);
        ScopedSpan span(obs.spans, &sim, "churn.conn", i + 1);
        int fd = *api->CreateSocket(IpProto::kTcp);
        if (!api->Connect(fd, SockAddrIn{bed.w().addr(0), kPort}).ok()) {
          api->Close(fd);
          o.failed++;  // refused or timed out: a miss
          resolve();
          continue;
        }
        o.connect.push_back(sim.Now() - a.due);
        FlowBytes(seed, i, a.size, &bytes);
        size_t off = 0;
        while (off < bytes.size()) {
          Result<size_t> sent = api->Send(fd, bytes.data() + off, bytes.size() - off);
          if (!sent.ok()) {
            break;  // the server sees a short flow and counts the miss
          }
          off += *sent;
        }
        api->Close(fd);
      }
    });
  }
  bed.Run(arrivals.back().due + Seconds(300));
  bed.Collect(0, server_pfd);

  o.failed += n - std::min(n, resolved);  // never resolved within the horizon
  if (mismatched != 0) {
    o.gate_error = "churn: " + std::to_string(mismatched) + " flows did not reconcile";
  } else if (migrate_failures != 0 || o.migrate.size() != std::min(migrations, n)) {
    o.gate_error = "churn: " + std::to_string(o.migrate.size()) + " of " +
                   std::to_string(migrations) + " live migrations completed";
  }
  return o;
}

}  // namespace

uint64_t Outcome::Digest() const {
  uint64_t h = kFnvOffset;
  auto mix = [&h](const void* p, size_t len) {
    h = Fnv(h, static_cast<const uint8_t*>(p), len);
  };
  auto mix_vec = [&mix](const std::vector<SimDuration>& v) {
    size_t n = v.size();
    mix(&n, sizeof n);
    mix(v.data(), n * sizeof(SimDuration));
  };
  mix(&attempted, sizeof attempted);
  mix(&failed, sizeof failed);
  mix_vec(lat);
  mix_vec(connect);
  mix_vec(late);
  mix_vec(migrate);
  mix(&payload_bytes, sizeof payload_bytes);
  mix(&payload_time, sizeof payload_time);
  mix(&end, sizeof end);
  mix(&conns, sizeof conns);
  mix(&round_trips, sizeof round_trips);
  mix(&proto.msgs_in, sizeof proto.msgs_in);
  mix(&proto.msgs_out, sizeof proto.msgs_out);
  for (const auto& [name, value] : counters) {
    // Process-wide pool counters depend on what earlier runs left pooled.
    if (name.rfind("netsim.frame_pool", 0) == 0 || name.rfind("mbuf.pool", 0) == 0) {
      continue;
    }
    mix(name.data(), name.size());
    mix(&value, sizeof value);
  }
  return h;
}

std::optional<Outcome> RunWorkload(const std::string& name, uint64_t seed, const Scale& scale,
                                   const Obs& obs, std::optional<uint64_t> expect_digest) {
  // The drop ledger, journey and metastate ledgers are process-wide; each
  // run reads only its own.
  PacketJourney::Get().Reset();
  DropLedger::Get().Reset();
  MetastateLedger::Get().Reset();
  if (name == "stream") {
    return RunStream(seed, scale, obs, expect_digest);
  }
  if (name == "rpc") {
    return RunRpc(seed, scale, obs);
  }
  if (name == "churn") {
    return RunChurn(seed, scale, obs);
  }
  return std::nullopt;
}

}  // namespace psd::bench
