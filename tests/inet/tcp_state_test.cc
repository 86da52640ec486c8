// TCP state-machine details beyond the happy path: TIME_WAIT and its 2MSL
// reuse, RST on data to a closed port, zero-window persist probes, keepalive
// against a dead peer, Nagle vs TCP_NODELAY, and sequence-space arithmetic.
#include <gtest/gtest.h>

#include "src/testbed/world.h"

namespace psd {
namespace {

TEST(SeqArith, WrapsCorrectly) {
  EXPECT_TRUE(SeqLt(0xfffffff0u, 0x10u));  // across the wrap
  EXPECT_TRUE(SeqGt(0x10u, 0xfffffff0u));
  EXPECT_TRUE(SeqLeq(5u, 5u));
  EXPECT_TRUE(SeqGeq(5u, 5u));
  EXPECT_FALSE(SeqLt(5u, 5u));
}

class TcpStateTest : public ::testing::Test {
 protected:
  TcpStateTest() : w(Config::kInKernel, MachineProfile::DecStation5000()) {}

  // Finds the first pcb on host `i` in the given state, else nullptr.
  TcpPcb* FindPcb(int i, TcpState state) {
    for (const auto& p : w.kernel_node(i)->stack()->tcp().pcbs()) {
      if (p->state == state) {
        return p.get();
      }
    }
    return nullptr;
  }

  World w;
};

TEST_F(TcpStateTest, ActiveCloserEntersTimeWait) {
  bool closed = false;
  w.SpawnApp(1, "rx", [&] {
    SocketApi* api = w.api(1);
    int lfd = *api->CreateSocket(IpProto::kTcp);
    api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), 5001});
    api->Listen(lfd, 1);
    Result<int> cfd = api->Accept(lfd, nullptr);
    if (cfd.ok()) {
      uint8_t b[4];
      api->Recv(*cfd, b, sizeof(b), nullptr, false);  // wait for EOF
      api->Close(*cfd);
    }
  });
  w.SpawnApp(0, "tx", [&] {
    SocketApi* api = w.api(0);
    int fd = *api->CreateSocket(IpProto::kTcp);
    w.sim().current_thread()->SleepFor(Millis(5));
    ASSERT_TRUE(api->Connect(fd, SockAddrIn{w.addr(1), 5001}).ok());
    api->Close(fd);  // active close: this side owes TIME_WAIT
    closed = true;
  });
  w.sim().RunFor(Seconds(3));
  ASSERT_TRUE(closed);
  // The active closer's pcb sits in TIME_WAIT...
  EXPECT_NE(FindPcb(0, TcpState::kTimeWait), nullptr);
  // ...and is reaped after 2MSL (60 s) plus a timer tick.
  w.sim().RunFor(Seconds(70));
  EXPECT_EQ(FindPcb(0, TcpState::kTimeWait), nullptr);
  EXPECT_TRUE(w.kernel_node(0)->stack()->tcp().pcbs().empty());
}

TEST_F(TcpStateTest, TimeWaitTupleIsReusableByNewSyn) {
  // A fresh connection from the same 4-tuple during TIME_WAIT succeeds
  // when its initial sequence is beyond the old incarnation's.
  int accepted = 0;
  w.SpawnApp(1, "srv", [&] {
    SocketApi* api = w.api(1);
    int lfd = *api->CreateSocket(IpProto::kTcp);
    api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), 5001});
    api->Listen(lfd, 2);
    for (int i = 0; i < 2; i++) {
      Result<int> cfd = api->Accept(lfd, nullptr);
      if (!cfd.ok()) {
        return;
      }
      accepted++;
      uint8_t b[4];
      api->Recv(*cfd, b, sizeof(b), nullptr, false);  // the client's 1 byte
      api->Close(*cfd);  // server actively closes -> server-side TIME_WAIT
    }
  });
  w.SpawnApp(0, "cli", [&] {
    SocketApi* api = w.api(0);
    for (int i = 0; i < 2; i++) {
      int fd = *api->CreateSocket(IpProto::kTcp);
      // Same client port both times: the second SYN hits the server's
      // TIME_WAIT pcb for the identical tuple.
      w.sim().current_thread()->SleepFor(Millis(10));
      Result<void> bound = api->Bind(fd, SockAddrIn{Ipv4Addr::Any(), 30000});
      ASSERT_TRUE(bound.ok()) << ErrName(bound.error());
      Result<void> c = api->Connect(fd, SockAddrIn{w.addr(1), 5001});
      ASSERT_TRUE(c.ok()) << "connection " << i << ": " << ErrName(c.error());
      uint8_t b[4] = {0x42};
      api->Send(fd, b, 1, nullptr);
      api->Recv(fd, b, sizeof(b), nullptr, false);  // EOF: server closed first
      api->Close(fd);  // passive close: no client-side TIME_WAIT
      // Wait for LAST_ACK to finish and the pcb (and port name) to be
      // reaped before rebinding the same port.
      w.sim().current_thread()->SleepFor(Seconds(3));
    }
  });
  w.sim().Run(Seconds(120));
  EXPECT_EQ(accepted, 2);
}

TEST_F(TcpStateTest, ZeroWindowTriggersPersistProbes) {
  bool finished = false;
  w.SpawnApp(1, "rx", [&] {
    SocketApi* api = w.api(1);
    int lfd = *api->CreateSocket(IpProto::kTcp);
    api->SetOpt(lfd, SockOpt::kRcvBuf, 4096);
    api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), 5001});
    api->Listen(lfd, 1);
    Result<int> cfd = api->Accept(lfd, nullptr);
    ASSERT_TRUE(cfd.ok());
    // Refuse to read for a long while: the sender fills the 4 KB window
    // and must keep the connection alive with persist probes.
    w.sim().current_thread()->SleepFor(Seconds(20));
    uint8_t buf[2048];
    size_t got = 0;
    for (;;) {
      Result<size_t> n = api->Recv(*cfd, buf, sizeof(buf), nullptr, false);
      if (!n.ok() || *n == 0) {
        break;
      }
      got += *n;
    }
    finished = got == 16 * 1024;
  });
  w.SpawnApp(0, "tx", [&] {
    SocketApi* api = w.api(0);
    int fd = *api->CreateSocket(IpProto::kTcp);
    w.sim().current_thread()->SleepFor(Millis(5));
    ASSERT_TRUE(api->Connect(fd, SockAddrIn{w.addr(1), 5001}).ok());
    std::vector<uint8_t> data(16 * 1024, 0x2a);
    size_t sent = 0;
    while (sent < data.size()) {
      Result<size_t> n = api->Send(fd, data.data() + sent, data.size() - sent, nullptr);
      ASSERT_TRUE(n.ok());
      sent += *n;
    }
    api->Close(fd);
  });
  w.sim().Run(Seconds(120));
  EXPECT_TRUE(finished);
  EXPECT_GT(w.kernel_node(0)->stack()->tcp().stats().persist_probes, 0u)
      << "sender must probe a zero window";
}

TEST_F(TcpStateTest, KeepaliveDropsDeadPeer) {
  // Note: with SO_KEEPALIVE and an unresponsive peer the connection must
  // eventually die with ETIMEDOUT rather than hang forever.
  bool checked = false;
  w.SpawnApp(1, "rx", [&] {
    SocketApi* api = w.api(1);
    int lfd = *api->CreateSocket(IpProto::kTcp);
    api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), 5001});
    api->Listen(lfd, 1);
    api->Accept(lfd, nullptr);
    // Peer goes silent AND the wire blackholes: probes get no answers.
    w.sim().current_thread()->SleepFor(Seconds(9500));
  });
  w.SpawnApp(0, "tx", [&] {
    SocketApi* api = w.api(0);
    int fd = *api->CreateSocket(IpProto::kTcp);
    w.sim().current_thread()->SleepFor(Millis(5));
    ASSERT_TRUE(api->Connect(fd, SockAddrIn{w.addr(1), 5001}).ok());
    api->SetOpt(fd, SockOpt::kKeepAlive, 1);
    FaultPlan faults;
    faults.loss_rate = 1.0;
    w.wire().SetFaults(faults);
    uint8_t b[4];
    Result<size_t> n = api->Recv(fd, b, sizeof(b), nullptr, false);
    // The keepalive machinery eventually errors the blocked receive out.
    EXPECT_FALSE(n.ok() && *n > 0);
    checked = true;
  });
  w.sim().Run(Seconds(9000));
  EXPECT_TRUE(checked);
  EXPECT_GT(w.kernel_node(0)->stack()->tcp().stats().keepalive_probes, 0u);
}

TEST_F(TcpStateTest, NodelaySendsSmallSegmentsImmediately) {
  // With Nagle (default), back-to-back 1-byte sends while unacknowledged
  // data is outstanding coalesce; with TCP_NODELAY each goes out alone.
  auto run = [](bool nodelay) -> uint64_t {
    World w(Config::kInKernel, MachineProfile::DecStation5000());
    uint64_t data_segs = 0;
    w.SpawnApp(1, "rx", [&] {
      SocketApi* api = w.api(1);
      int lfd = *api->CreateSocket(IpProto::kTcp);
      api->Bind(lfd, SockAddrIn{Ipv4Addr::Any(), 5001});
      api->Listen(lfd, 1);
      Result<int> cfd = api->Accept(lfd, nullptr);
      if (!cfd.ok()) {
        return;
      }
      uint8_t buf[64];
      size_t got = 0;
      while (got < 20) {
        Result<size_t> n = api->Recv(*cfd, buf, sizeof(buf), nullptr, false);
        if (!n.ok() || *n == 0) {
          break;
        }
        got += *n;
      }
    });
    w.SpawnApp(0, "tx", [&] {
      SocketApi* api = w.api(0);
      int fd = *api->CreateSocket(IpProto::kTcp);
      w.sim().current_thread()->SleepFor(Millis(5));
      if (!api->Connect(fd, SockAddrIn{w.addr(1), 5001}).ok()) {
        return;
      }
      api->SetOpt(fd, SockOpt::kNoDelay, nodelay ? 1 : 0);
      uint8_t b = 0x55;
      for (int i = 0; i < 20; i++) {
        api->Send(fd, &b, 1, nullptr);  // no waiting between sends
      }
    });
    w.sim().Run(Seconds(30));
    data_segs = w.kernel_node(0)->stack()->tcp().stats().data_segs_sent;
    return data_segs;
  };
  uint64_t nagle_segs = run(false);
  uint64_t nodelay_segs = run(true);
  EXPECT_LT(nagle_segs, nodelay_segs) << "Nagle must coalesce tinygrams";
  EXPECT_EQ(nodelay_segs, 20u);
}

// Port-name lifecycle across destroy and migration: only the owning pcb
// releases a port, ownership survives a listener dying before its accepted
// children, and a migrated-out pcb leaves the name allocated for the OS
// server to release at session teardown.
class TcpPortLifecycleTest : public ::testing::Test {
 protected:
  TcpPortLifecycleTest() : w(Config::kInKernel, MachineProfile::DecStation5000()) {}

  Stack* stack() { return w.kernel_node(0)->stack(); }

  World w;
};

TEST_F(TcpPortLifecycleTest, MigratedOutPcbKeepsPortAllocated) {
  Stack* s = stack();
  EXPECT_TRUE(w.RunInThread(0, [&] {
    DomainLock lock(s->sync());
    TcpPcb* pcb = s->tcp().Create();
    ASSERT_TRUE(s->tcp().Bind(pcb, SockAddrIn{Ipv4Addr::Any(), 0}).ok());
    uint16_t port = pcb->local.port;
    ASSERT_NE(port, 0);
    ASSERT_TRUE(s->ports().InUse(port));
    // Migrate out: the pcb leaves this stack, but the session lives on at
    // its new home under the same name — releasing the port here would let
    // a new session acquire a duplicate while the migrated one is still
    // live.
    (void)s->tcp().ExtractForMigration(pcb);
    EXPECT_TRUE(s->tcp().pcbs().empty());
    EXPECT_TRUE(s->ports().InUse(port));
    s->ports().Release(port);  // what the session's owner does at teardown
  }));
}

TEST_F(TcpPortLifecycleTest, ListenerClosingFirstPassesPortToChildren) {
  Stack* s = stack();
  EXPECT_TRUE(w.RunInThread(0, [&] {
    DomainLock lock(s->sync());
    TcpPcb* listener = s->tcp().Create();
    ASSERT_TRUE(s->tcp().Bind(listener, SockAddrIn{Ipv4Addr::Any(), 7777}).ok());
    TcpPcb* c1 = s->tcp().Create();
    s->tcp().AdoptBinding(c1, listener->local);
    TcpPcb* c2 = s->tcp().Create();
    s->tcp().AdoptBinding(c2, listener->local);
    // The owner dies first: the shared port must stay allocated for the
    // children, and the last of them must release it (the pre-harness code
    // leaked it here because no survivor owned the binding).
    s->tcp().Destroy(listener);
    EXPECT_TRUE(s->ports().InUse(7777));
    s->tcp().Destroy(c1);
    EXPECT_TRUE(s->ports().InUse(7777));
    s->tcp().Destroy(c2);
    EXPECT_FALSE(s->ports().InUse(7777));
  }));
}

}  // namespace
}  // namespace psd
