#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/obs/probe.h"
#include "src/sim/simulator.h"

namespace psd {
namespace {

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(Micros(30), [&] { order.push_back(3); });
  sim.Schedule(Micros(10), [&] { order.push_back(1); });
  sim.Schedule(Micros(20), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), Micros(30));
}

TEST(Simulator, EqualTimesRunInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; i++) {
    sim.Schedule(Micros(5), [&, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  bool ran = false;
  sim.Schedule(Seconds(5), [&] { ran = true; });
  sim.Run(Seconds(1));
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.Now(), Seconds(1));
  sim.Run(Seconds(10));
  EXPECT_TRUE(ran);
}

TEST(SimThread, ChargeAdvancesVirtualTime) {
  Simulator sim;
  HostCpu cpu;
  SimTime after = 0;
  sim.Spawn("t", &cpu, [&] {
    sim.current_thread()->Charge(Micros(100));
    after = sim.Now();
  });
  sim.Run();
  EXPECT_EQ(after, Micros(100));
  EXPECT_EQ(cpu.busy(), Micros(100));
}

TEST(SimThread, CpuSerializesConcurrentCharges) {
  // Two threads each burn 100us on one CPU: total virtual time 200us.
  Simulator sim;
  HostCpu cpu;
  SimTime t1 = 0, t2 = 0;
  sim.Spawn("a", &cpu, [&] {
    sim.current_thread()->Charge(Micros(100));
    t1 = sim.Now();
  });
  sim.Spawn("b", &cpu, [&] {
    sim.current_thread()->Charge(Micros(100));
    t2 = sim.Now();
  });
  sim.Run();
  EXPECT_EQ(std::max(t1, t2), Micros(200));
}

TEST(SimThread, SeparateCpusRunInParallel) {
  Simulator sim;
  HostCpu cpu_a, cpu_b;
  SimTime t1 = 0, t2 = 0;
  sim.Spawn("a", &cpu_a, [&] {
    sim.current_thread()->Charge(Micros(100));
    t1 = sim.Now();
  });
  sim.Spawn("b", &cpu_b, [&] {
    sim.current_thread()->Charge(Micros(100));
    t2 = sim.Now();
  });
  sim.Run();
  EXPECT_EQ(t1, Micros(100));
  EXPECT_EQ(t2, Micros(100));
}

TEST(SimThread, WaitAndNotify) {
  Simulator sim;
  HostCpu cpu;
  WaitQueue q(&sim);
  SimTime woken_at = 0;
  sim.Spawn("waiter", &cpu, [&] {
    sim.current_thread()->WaitOn(&q);
    woken_at = sim.Now();
  });
  sim.Spawn("waker", &cpu, [&] {
    sim.current_thread()->SleepFor(Millis(3));
    q.NotifyOne();
  });
  sim.Run();
  EXPECT_EQ(woken_at, Millis(3));
}

TEST(SimThread, WaitTimeout) {
  Simulator sim;
  HostCpu cpu;
  WaitQueue q(&sim);
  bool notified = true;
  sim.Spawn("waiter", &cpu, [&] {
    notified = sim.current_thread()->WaitOn(&q, sim.Now() + Millis(5));
  });
  sim.Run();
  EXPECT_FALSE(notified);
  EXPECT_EQ(sim.Now(), Millis(5));
}

TEST(SimThread, NotifyBeatsTimeout) {
  Simulator sim;
  HostCpu cpu;
  WaitQueue q(&sim);
  bool notified = false;
  SimTime woke_at = 0;
  sim.Spawn("waiter", &cpu, [&] {
    notified = sim.current_thread()->WaitOn(&q, sim.Now() + Millis(50));
    woke_at = sim.Now();
  });
  sim.Schedule(Millis(1), [&] { q.NotifyOne(); });
  sim.Run();
  EXPECT_TRUE(notified);
  EXPECT_EQ(woke_at, Millis(1));
}

TEST(SimMutex, MutualExclusion) {
  Simulator sim;
  HostCpu cpu;
  SimMutex mu(&sim);
  int in_critical = 0;
  int max_in_critical = 0;
  for (int i = 0; i < 3; i++) {
    sim.Spawn("t" + std::to_string(i), &cpu, [&] {
      mu.Lock();
      in_critical++;
      max_in_critical = std::max(max_in_critical, in_critical);
      sim.current_thread()->Charge(Micros(50));  // yields while holding
      in_critical--;
      mu.Unlock();
    });
  }
  sim.Run();
  EXPECT_EQ(max_in_critical, 1);
}

TEST(SimCondition, WaitReleasesMutex) {
  Simulator sim;
  HostCpu cpu;
  SimMutex mu(&sim);
  SimCondition cv(&sim);
  bool consumed = false;
  sim.Spawn("consumer", &cpu, [&] {
    mu.Lock();
    cv.Wait(&mu);
    consumed = true;
    mu.Unlock();
  });
  sim.Spawn("producer", &cpu, [&] {
    sim.current_thread()->SleepFor(Millis(1));
    mu.Lock();  // succeeds because the consumer's Wait released it
    cv.NotifyOne();
    mu.Unlock();
  });
  sim.Run();
  EXPECT_TRUE(consumed);
}

TEST(Simulator, KillThreadUnwinds) {
  Simulator sim;
  HostCpu cpu;
  WaitQueue q(&sim);
  bool finished_normally = false;
  SimThread* t = sim.Spawn("stuck", &cpu, [&] {
    sim.current_thread()->WaitOn(&q);
    finished_normally = true;  // unreached: the wait never completes
  });
  sim.Run();
  EXPECT_FALSE(t->finished());
  sim.KillThread(t);
  EXPECT_TRUE(t->finished());
  EXPECT_FALSE(finished_normally);
  EXPECT_TRUE(q.empty()) << "killed thread must not linger in wait queues";
}

TEST(Simulator, DeterministicAcrossRuns) {
  auto run = [] {
    Simulator sim;
    HostCpu a, b;
    uint64_t trace = 0;
    WaitQueue q(&sim);
    sim.Spawn("x", &a, [&] {
      for (int i = 0; i < 10; i++) {
        sim.current_thread()->Charge(Micros(7));
        trace = trace * 31 + static_cast<uint64_t>(sim.Now());
        q.NotifyOne();
      }
    });
    sim.Spawn("y", &b, [&] {
      for (int i = 0; i < 5; i++) {
        sim.current_thread()->WaitOn(&q, sim.Now() + Micros(13));
        trace = trace * 37 + static_cast<uint64_t>(sim.Now());
      }
    });
    sim.Run();
    return trace;
  };
  EXPECT_EQ(run(), run());
}

// --- Fiber contract: what a control transfer must preserve ---------------

// Misalignment of a fresh 16-aligned local in a new frame. The asm hides the
// address from the optimizer, which would otherwise fold the remainder to 0
// on the ABI's promise that the stack is aligned.
[[gnu::noinline]] uintptr_t FreshLocalMisalignment() {
  alignas(16) char buf[16];
  uintptr_t v = reinterpret_cast<uintptr_t>(buf);
  asm volatile("" : "+r"(v) : : "memory");
  return v % 16;
}

TEST(FiberContract, StackIsAlignedAtEntryAndAfterResume) {
  Simulator sim;
  HostCpu cpu;
  std::vector<uintptr_t> misalignment;
  for (int i = 0; i < 2; i++) {
    sim.Spawn("t" + std::to_string(i), &cpu, [&] {
      misalignment.push_back(FreshLocalMisalignment());
      sim.current_thread()->Charge(Micros(10));  // the other fiber runs
      misalignment.push_back(FreshLocalMisalignment());
    });
  }
  sim.Run();
  EXPECT_EQ(misalignment, (std::vector<uintptr_t>{0, 0, 0, 0}));
  EXPECT_GT(sim.thread_switches(), 2u);
}

// The FP control state (x87 control word, MXCSR) belongs to the fiber: a
// rounding mode set in one is not seen by another and survives a switch.
TEST(FiberContract, RoundingModeIsPerFiber) {
  volatile double one = 1.0;
  volatile double three = 3.0;
  const double nearest_third = one / three;
  Simulator sim;
  HostCpu cpu;
  int a_set = -1, a_resumed = -1, b_saw = -1;
  double a_third = 0, b_third = 0;
  sim.Spawn("a", &cpu, [&] {
    std::fesetround(FE_UPWARD);
    a_set = std::fegetround();
    sim.current_thread()->Yield();  // b runs here
    a_resumed = std::fegetround();
    a_third = one / three;
    std::fesetround(FE_TONEAREST);
  });
  sim.Spawn("b", &cpu, [&] {
    b_saw = std::fegetround();
    b_third = one / three;
  });
  sim.Run();
  EXPECT_EQ(a_set, FE_UPWARD);
  EXPECT_EQ(b_saw, FE_TONEAREST);
  EXPECT_EQ(a_resumed, FE_UPWARD);
  EXPECT_EQ(b_third, nearest_third) << "b computed under a's rounding mode";
  EXPECT_GT(a_third, nearest_third) << "a lost its rounding mode across the switch";
  EXPECT_EQ(std::fegetround(), FE_TONEAREST) << "a fiber's mode leaked into the caller";
}

// Exceptions unwind the fiber's own frames after the fiber was switched out
// and back in mid-try.
TEST(FiberContract, ExceptionCaughtInsideFiberAcrossSleep) {
  Simulator sim;
  HostCpu cpu_a, cpu_b;
  std::vector<std::string> caught;
  for (const char* name : {"a", "b"}) {
    sim.Spawn(name, name[0] == 'a' ? &cpu_a : &cpu_b, [&, name] {
      for (int i = 0; i < 3; i++) {
        try {
          sim.current_thread()->SleepFor(Micros(name[0] == 'a' ? 3 : 5));
          throw std::runtime_error(std::string(name) + std::to_string(i));
        } catch (const std::runtime_error& e) {
          caught.push_back(e.what());
        }
      }
    });
  }
  sim.Run();
  // a wakes at 3, 6, 9 us; b at 5, 10, 15 us.
  EXPECT_EQ(caught, (std::vector<std::string>{"a0", "b0", "a1", "a2", "b1", "b2"}));
}

// ~Simulator force-unwinds a fiber blocked forever; its stack objects are
// destroyed on the way out.
TEST(FiberContract, ShutdownUnwindRunsStackDestructors) {
  struct Sentinel {
    int* destroyed;
    ~Sentinel() { ++*destroyed; }
  };
  int destroyed = 0;
  bool woken = false;
  {
    Simulator sim;
    HostCpu cpu;
    WaitQueue never(&sim);
    sim.Spawn("blocked", &cpu, [&] {
      Sentinel outer{&destroyed};
      [&] {
        Sentinel inner{&destroyed};
        sim.current_thread()->WaitOn(&never);
        woken = true;
      }();
    });
    sim.Run();
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 2);
  EXPECT_FALSE(woken);
}

// Fiber a's inline drain enters parked fiber b; b blocks on a wakeup behind
// a's own, so it yields back into a's drain, and a continues in its own frame
// without a trip through the event loop.
TEST(FiberContract, DrainEntersParkedFiberThenResumesOwnFrame) {
  Simulator sim;
  HostCpu cpu_a, cpu_b;
  std::vector<std::string> log;
  const int* local_before = nullptr;
  const int* local_after = nullptr;
  int local_value = 0;
  sim.Spawn("a", &cpu_a, [&] {
    int local = 42;
    local_before = &local;
    log.push_back("a start");
    sim.current_thread()->SleepFor(Micros(1));  // drain enters b
    log.push_back("a resumed");
    local_after = &local;
    local_value = local;
  });
  sim.Spawn("b", &cpu_b, [&] {
    log.push_back("b start");
    sim.current_thread()->SleepFor(Micros(10));
    log.push_back("b resumed");
  });
  sim.Run();
  EXPECT_EQ(log, (std::vector<std::string>{"a start", "b start", "a resumed", "b resumed"}));
  EXPECT_EQ(local_before, local_after);
  EXPECT_EQ(local_value, 42);
  // loop -> a, a's drain -> b, loop -> b at 10 us: b's start rode a's drain.
  EXPECT_EQ(sim.thread_switches(), 3u);
  EXPECT_EQ(sim.Now(), Micros(10));
}

TEST(Probe, NestedSpansExcludeChildren) {
  Simulator sim;
  HostCpu cpu;
  Tracer tracer;
  StageRecorder rec;
  tracer.AddSink(&rec);
  sim.Spawn("t", &cpu, [&] {
    ProbeSpan outer(&tracer, &sim, Stage::kEntryCopyin);
    sim.current_thread()->Charge(Micros(10));
    {
      ProbeSpan inner(&tracer, &sim, Stage::kProtoOutput);
      sim.current_thread()->Charge(Micros(25));
    }
    sim.current_thread()->Charge(Micros(5));
  });
  sim.Run();
  EXPECT_DOUBLE_EQ(rec.cell(Stage::kEntryCopyin).MeanMicros(), 15.0);
  EXPECT_DOUBLE_EQ(rec.cell(Stage::kProtoOutput).MeanMicros(), 25.0);
}

TEST(Probe, ConditionalSpanNotRecordedUnlessCommitted) {
  Simulator sim;
  HostCpu cpu;
  Tracer tracer;
  StageRecorder rec;
  tracer.AddSink(&rec);
  sim.Spawn("t", &cpu, [&] {
    {
      ProbeSpan s(&tracer, &sim, Stage::kProtoOutput);
      s.MarkConditional();
      sim.current_thread()->Charge(Micros(10));
    }
    {
      ProbeSpan s(&tracer, &sim, Stage::kProtoOutput);
      s.MarkConditional();
      sim.current_thread()->Charge(Micros(20));
      s.Commit();
    }
  });
  sim.Run();
  EXPECT_EQ(rec.cell(Stage::kProtoOutput).count, 1u);
  EXPECT_DOUBLE_EQ(rec.cell(Stage::kProtoOutput).MeanMicros(), 20.0);
}

}  // namespace
}  // namespace psd
