#include "src/sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <exception>
#include <optional>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#endif

#if defined(__x86_64__)
// psd_fiber_switch(void** save_sp, void* load_sp) — one control transfer.
// Pushes the System V callee-saved state (rbp, rbx, r12-r15, then MXCSR and
// the x87 control word), publishes rsp through *save_sp, adopts load_sp and
// pops the other side's state in reverse, returning into that side. No
// signal mask is saved: fibers never change it, which is what keeps a swap
// out of the kernel (glibc swapcontext makes an rt_sigprocmask syscall).
//
// psd_fiber_entry is where a new fiber's first switch returns (the initial
// frame is laid out by SimThread's constructor): it calls r12(rbx), i.e.
// SimThread::FiberEntry(this), which never returns. rip is marked undefined
// so unwinders stop at the bottom of a fiber stack.
asm(R"(
  .pushsection .text
  .p2align 4
  .globl psd_fiber_switch
  .hidden psd_fiber_switch
  .type psd_fiber_switch, @function
psd_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $16, %rsp
  stmxcsr 8(%rsp)
  fnstcw (%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  fldcw (%rsp)
  ldmxcsr 8(%rsp)
  addq $16, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size psd_fiber_switch, .-psd_fiber_switch

  .globl psd_fiber_entry
  .hidden psd_fiber_entry
  .type psd_fiber_entry, @function
psd_fiber_entry:
  .cfi_startproc
  .cfi_undefined rip
  movq %rbx, %rdi
  callq *%r12
  ud2
  .cfi_endproc
  .size psd_fiber_entry, .-psd_fiber_entry
  .popsection
)");

extern "C" void psd_fiber_switch(void** save_sp, void* load_sp);
extern "C" void psd_fiber_entry();
#endif

namespace psd {

namespace {

// Min-heap comparator for the legacy backend: true when `a` executes later.
bool NodeAfter(const EventNode* a, const EventNode* b) { return b->Before(*a); }

// ASan tracks one stack per OS thread. Announcing every fiber switch keeps
// its shadow memory and fake stacks (detect_stack_use_after_return) on the
// stack that actually runs: StartSwitch before leaving (a null `fake_stack`
// on a fiber's final exit frees its fake stack), FinishSwitch on arrival,
// which also reports the stack that was left.
#if defined(__SANITIZE_ADDRESS__)
void StartSwitch(void** fake_stack, const void* bottom, size_t size) {
  __sanitizer_start_switch_fiber(fake_stack, bottom, size);
}
void FinishSwitch(void* fake_stack, const void** bottom_old, size_t* size_old) {
  __sanitizer_finish_switch_fiber(fake_stack, bottom_old, size_old);
}
#else
void StartSwitch(void**, const void*, size_t) {}
void FinishSwitch(void*, const void**, size_t*) {}
#endif

}  // namespace

Simulator::Simulator() {
  const char* env = std::getenv("PSD_SIM_HEAP_SCHEDULER");
  use_heap_ = env != nullptr && *env != '\0' && *env != '0';
}

Simulator::~Simulator() {
  shutting_down_ = true;
  // Force every live thread to unwind: resuming a thread makes its blocking
  // primitive return, and CheckShutdown throws SimShutdown through the body.
  for (auto& t : threads_) {
    while (!t->finished_) {
      current_ = t.get();
      t->RunUntilBlocked();
      current_ = nullptr;
    }
  }
  threads_.clear();
  // Destroy pending callables without running them. Nodes themselves are
  // freed with the arena's chunks.
  for (EventNode* n = ready_head_; n != nullptr; n = n->next) {
    n->DestroyCallable();
  }
  for (EventNode* n : heap_) {
    n->DestroyCallable();
  }
  wheel_.ForEachPending([](EventNode* n) { n->DestroyCallable(); });
}

void Simulator::InsertNode(EventNode* n) {
  if (n->time <= now_) {
    // Scheduled for "right now": seq monotonicity makes FIFO order the
    // (time, seq) order, so no ordering structure is needed.
    assert(n->time == now_);
    n->next = nullptr;
    if (ready_tail_ != nullptr) {
      ready_tail_->next = n;
    } else {
      ready_head_ = n;
    }
    ready_tail_ = n;
  } else if (use_heap_) {
    heap_.push_back(n);
    std::push_heap(heap_.begin(), heap_.end(), NodeAfter);
  } else {
    wheel_.Insert(n);
  }
}

EventNode* Simulator::ScheduleResume(SimThread* t, SimTime when) {
  EventNode* n = NewNode(when);
  n->resumes = t;
  InsertNode(n);
  return n;
}

EventNode* Simulator::PeekNext() {
  EventNode* b;
  if (use_heap_) {
    b = heap_.empty() ? nullptr : heap_.front();
  } else {
    b = wheel_.Front();
  }
  EventNode* r = ready_head_;
  if (r == nullptr) {
    return b;
  }
  if (b == nullptr) {
    return r;
  }
  return r->Before(*b) ? r : b;
}

void Simulator::RemovePeeked(EventNode* n) {
  if (n == ready_head_) {
    ready_head_ = n->next;
    if (ready_head_ == nullptr) {
      ready_tail_ = nullptr;
    }
    n->next = nullptr;
  } else if (use_heap_) {
    std::pop_heap(heap_.begin(), heap_.end(), NodeAfter);
    assert(heap_.back() == n);
    heap_.pop_back();
  } else {
    wheel_.PopFront();
  }
}

SimThread* Simulator::Spawn(std::string name, HostCpu* cpu, std::function<void()> body) {
  auto t = std::unique_ptr<SimThread>(new SimThread(this, std::move(name), cpu, std::move(body)));
  SimThread* raw = t.get();
  threads_.push_back(std::move(t));
  ScheduleResume(raw, now_);
  return raw;
}

void Simulator::Run(SimTime until) {
  stopped_ = false;
  in_run_ = true;
  run_until_ = until;
  // Host-profiler attribution (reads the TSC, never virtual state): loop
  // dispatch — peek/pop, wheel cascades, arena frees — charges to sim.sched
  // exclusively; closure bodies charge to sim.event; time while a resumed
  // fiber runs charges to that fiber via the Depart/Arrive edges in
  // RunUntilBlocked.
  ProfScope prof_sched(ProfDomain::kSimSched);
  for (;;) {
    EventNode* n = PeekNext();
    if (stopped_ || n == nullptr || n->time > until) {
      break;
    }
    RemovePeeked(n);
    now_ = n->time;
    events_executed_++;
    if (n->resumes != nullptr) {
      SimThread* t = n->resumes;
      arena_.Free(n);
      ResumeThread(t);
    } else {
      {
        ProfScope prof_ev(ProfDomain::kSimEvent);
        n->invoke(n);
      }
      n->DestroyCallable();
      arena_.Free(n);
    }
  }
  in_run_ = false;
  if (until != kTimeNever && now_ < until && !stopped_) {
    now_ = until;
  }
}

bool Simulator::TryFastResume(SimThread* t, EventNode* n) {
  assert(current_ == t);
  if (!in_run_ || shutting_down_) {
    return false;
  }
  // Drain events inline on this OS thread until the calling thread's own
  // wakeup `n` comes up, in which case the thread just keeps going — zero
  // handoffs. Closures run in event context exactly as the loop would run
  // them, and a parked foreign thread is resumed directly (one wake/park
  // pair instead of two via the event-loop thread); this OS thread blocks
  // until it yields, then keeps draining. The one case that aborts the
  // drain is a resume for a non-parked thread: that thread is blocked
  // inside someone's RunUntilBlocked further up the token chain, so the
  // only way to reach it is to park — the token then unwinds resumer by
  // resumer until the drain loop holding that thread's frame continues and
  // finds its own wakeup on top. Virtual behavior (time, order, event
  // count) is identical to the loop running everything.
  // The drain IS the scheduler, just running on a fiber's OS context: charge
  // it to sim.sched (nested under whatever scope the fiber holds open), with
  // closure bodies under sim.event, exactly like the main loop. The scope
  // opens lazily, only once the drain runs a closure: most calls bail on
  // the first peek, consume the thread's own wakeup or enter a parked fiber
  // (whose swap edges stamp the TSC anyway), and paying two more stamps on
  // those paths roughly doubled the profiler's whole-run overhead. Their
  // peek/pop is a few ns and charges to whatever scope the caller holds —
  // noise.
  std::optional<ProfScope> prof_sched;
  while (!stopped_) {
    EventNode* top = PeekNext();
    if (top == nullptr || top->time > run_until_) {
      return false;
    }
    SimThread* u = top->resumes;
    if (u != nullptr && u != t && !u->parked_ && !u->finished_) {
      return false;  // on the token chain above us: unwind to it
    }
    RemovePeeked(top);
    now_ = top->time;
    events_executed_++;
    if (top == n) {
      arena_.Free(n);
      return true;
    }
    if (u != nullptr) {
      arena_.Free(top);
      if (!u->finished_) {
        thread_switches_++;
        current_ = u;
        u->RunUntilBlocked();
        current_ = t;
      }
    } else {
      if (!prof_sched.has_value()) {
        prof_sched.emplace(ProfDomain::kSimSched);
      }
      current_ = nullptr;
      {
        ProfScope prof_ev(ProfDomain::kSimEvent);
        top->invoke(top);
      }
      top->DestroyCallable();
      current_ = t;
      arena_.Free(top);
    }
  }
  return false;
}

void Simulator::KillThread(SimThread* t) {
  assert(current_ == nullptr && "KillThread must be called outside Run()");
  t->killed_ = true;
  while (!t->finished_) {
    current_ = t;
    t->RunUntilBlocked();
    current_ = nullptr;
  }
}

void Simulator::ResumeThread(SimThread* t) {
  if (t->finished_) {
    return;  // stale wakeup for a killed thread
  }
  assert(current_ == nullptr && "nested thread resume");
  thread_switches_++;
  current_ = t;
  t->RunUntilBlocked();
  current_ = nullptr;
}

// ---------------------------------------------------------------------------
// SimThread

SimThread::SimThread(Simulator* sim, std::string name, HostCpu* cpu, std::function<void()> body)
    : sim_(sim), name_(std::move(name)), cpu_(cpu), body_(std::move(body)) {
  stack_.reset(new uint8_t[kStackBytes]);
#if defined(__x86_64__)
  // The frame the first switch into this fiber pops: the x87 control word
  // and MXCSR (the spawner's, as a new thread inherits its creator's FP
  // environment), r15..r12, rbx, rbp, and a "return address" into
  // psd_fiber_entry, which it reaches with rsp 16-byte aligned as the ABI
  // requires at a call. rbx carries `this`, r12 the entry function, and a
  // zero rbp ends frame-pointer chains.
  uintptr_t top = reinterpret_cast<uintptr_t>(stack_.get() + kStackBytes) & ~uintptr_t{15};
  auto* frame = reinterpret_cast<uint64_t*>(top - 88);
  uint16_t fpu_cw;
  asm("fnstcw %0" : "=m"(fpu_cw));
  frame[0] = fpu_cw;
  frame[1] = __builtin_ia32_stmxcsr();
  frame[2] = 0;  // r15
  frame[3] = 0;  // r14
  frame[4] = 0;  // r13
  frame[5] = reinterpret_cast<uint64_t>(&SimThread::FiberEntry);  // r12
  frame[6] = reinterpret_cast<uint64_t>(this);                     // rbx
  frame[7] = 0;                                                    // rbp
  frame[8] = reinterpret_cast<uint64_t>(&psd_fiber_entry);
  fiber_ctx_ = frame;
  return_ctx_ = nullptr;
#else
  getcontext(&fiber_ctx_);
  fiber_ctx_.uc_stack.ss_sp = stack_.get();
  fiber_ctx_.uc_stack.ss_size = kStackBytes;
  fiber_ctx_.uc_link = nullptr;  // FiberMain swaps back explicitly
  uintptr_t self = reinterpret_cast<uintptr_t>(this);
  makecontext(&fiber_ctx_, reinterpret_cast<void (*)()>(&SimThread::FiberTrampoline), 2,
              static_cast<unsigned>(self >> 32), static_cast<unsigned>(self & 0xffffffffu));
#endif
}

#if defined(__x86_64__)
void SimThread::SwitchContext(FiberContext* save, FiberContext* load) {
  psd_fiber_switch(save, *load);
}
#else
void SimThread::SwitchContext(FiberContext* save, FiberContext* load) { swapcontext(save, load); }

void SimThread::FiberTrampoline(unsigned hi, unsigned lo) {
  uintptr_t p = (static_cast<uintptr_t>(hi) << 32) | static_cast<uintptr_t>(lo);
  FiberEntry(reinterpret_cast<SimThread*>(p));
}
#endif

void SimThread::FiberMain() {
  FinishSwitch(nullptr, &caller_stack_, &caller_stack_size_);
  if (HostProfiler* prof = HostProfiler::active()) {
    prof->ArriveFiber(&prof_ctx_, name_);
  }
  try {
    CheckShutdown();
    // Run the body from a local so its captures die with the body, not with
    // the SimThread object (which outlives it in Simulator::threads_).
    std::function<void()> body = std::move(body_);
    body();
  } catch (const SimShutdown&) {
    // Normal teardown path.
  }
  finished_ = true;
  parked_ = true;
  if (HostProfiler* prof = HostProfiler::active()) {
    prof->Depart();
  }
  // Final exit; whoever entered this fiber frees the stack (and ASan its
  // fake stack, given no slot to save it in).
  StartSwitch(nullptr, caller_stack_, caller_stack_size_);
  SwitchContext(&fiber_ctx_, &return_ctx_);
  __builtin_unreachable();
}

void SimThread::RunUntilBlocked() {
  parked_ = false;
  // Host-profiler context-switch edges: remember whose host time was accruing
  // (this frame's context survives the swap on our stack), charge the swap
  // gap to fiber.swap, and restore on return.
  uint32_t prof_prev = 0;
  if (HostProfiler* prof = HostProfiler::active()) {
    prof_prev = prof->Depart();
  }
  // Each entry freshly records the caller's context, so nested drain chains
  // (fiber A drains and enters fiber B, which later yields) unwind to the
  // right frame.
  void* fake_stack = nullptr;
  StartSwitch(&fake_stack, stack_.get(), kStackBytes);
  SwitchContext(&return_ctx_, &fiber_ctx_);
  FinishSwitch(fake_stack, nullptr, nullptr);
  if (HostProfiler* prof = HostProfiler::active()) {
    prof->Arrive(prof_prev);
  }
  if (finished_ && stack_ != nullptr) {
    stack_.reset();  // dead fibers keep their SimThread, not their stack
  }
}

void SimThread::YieldToSimulator() {
  parked_ = true;
  if (HostProfiler* prof = HostProfiler::active()) {
    prof->Depart();
  }
  void* fake_stack = nullptr;
  StartSwitch(&fake_stack, caller_stack_, caller_stack_size_);
  SwitchContext(&fiber_ctx_, &return_ctx_);
  FinishSwitch(fake_stack, &caller_stack_, &caller_stack_size_);
  if (HostProfiler* prof = HostProfiler::active()) {
    prof->ArriveFiber(&prof_ctx_, name_);
  }
  CheckShutdown();
}

void SimThread::CheckShutdown() {
  if ((sim_->shutting_down_ || killed_) && std::uncaught_exceptions() == 0) {
    throw SimShutdown{};
  }
}

void SimThread::Charge(SimDuration cost) {
  assert(sim_->current_thread() == this);
  if (cost <= 0) {
    return;
  }
  assert(cpu_ != nullptr && "Charge on a thread with no host CPU");
  SimTime end = cpu_->Acquire(sim_->Now(), cost);
  cpu_->AccountBusy(cost);
  SleepUntil(end);
}

void SimThread::SleepUntil(SimTime t) {
  assert(sim_->current_thread() == this);
  if (sim_->shutting_down_ || killed_) {
    return;
  }
  EventNode* n = sim_->ScheduleResume(this, t);
  if (sim_->TryFastResume(this, n)) {
    // Our wakeup was the next event anyway: time advanced, the event was
    // consumed and counted, and this OS thread just keeps going — no
    // round trip through the event-loop thread.
    return;
  }
  YieldToSimulator();
}

void SimThread::SleepFor(SimDuration d) { SleepUntil(sim_->Now() + d); }

void SimThread::Yield() { SleepUntil(sim_->Now()); }

bool SimThread::WaitOn(WaitQueue* q, SimTime deadline) {
  assert(sim_->current_thread() == this);
  if (sim_->shutting_down_ || killed_) {
    return false;
  }
  wait_epoch_++;
  uint64_t epoch = wait_epoch_;
  timed_out_ = false;
  waiting_on_ = q;
  q->PushBack(this);
  if (deadline != kTimeNever) {
    sim_->Schedule(deadline, [this, q, epoch] {
      if (waiting_on_ == q && wait_epoch_ == epoch) {
        timed_out_ = true;
        waiting_on_ = nullptr;
        q->Remove(this);
        sim_->ResumeThread(this);
      }
    });
  }
  try {
    YieldToSimulator();
  } catch (...) {
    // Forced unwind: leave no dangling queue entry behind. During whole-
    // simulator shutdown the queue's owner may already be destroyed, so the
    // entry is only removed on targeted kills (component destructors kill
    // their threads before freeing the queues they wait on).
    if (!sim_->shutting_down_ && waiting_on_ != nullptr) {
      waiting_on_->Remove(this);
      waiting_on_ = nullptr;
    }
    throw;
  }
  return !timed_out_;
}

// ---------------------------------------------------------------------------
// WaitQueue

void WaitQueue::PushBack(SimThread* t) {
  t->wait_prev_ = tail_;
  t->wait_next_ = nullptr;
  if (tail_ != nullptr) {
    tail_->wait_next_ = t;
  } else {
    head_ = t;
  }
  tail_ = t;
  size_++;
}

SimThread* WaitQueue::PopFront() {
  SimThread* t = head_;
  if (t != nullptr) {
    Remove(t);
  }
  return t;
}

void WaitQueue::Remove(SimThread* t) {
  if (t->wait_prev_ != nullptr) {
    t->wait_prev_->wait_next_ = t->wait_next_;
  } else {
    assert(head_ == t);
    head_ = t->wait_next_;
  }
  if (t->wait_next_ != nullptr) {
    t->wait_next_->wait_prev_ = t->wait_prev_;
  } else {
    assert(tail_ == t);
    tail_ = t->wait_prev_;
  }
  t->wait_next_ = nullptr;
  t->wait_prev_ = nullptr;
  size_--;
}

bool WaitQueue::NotifyOne() {
  SimThread* t = PopFront();
  if (t == nullptr) {
    return false;
  }
  t->waiting_on_ = nullptr;
  t->wait_epoch_++;  // invalidates any pending timeout event
  t->timed_out_ = false;
  sim_->ScheduleResume(t, sim_->now_);
  return true;
}

void WaitQueue::NotifyAll() {
  while (NotifyOne()) {
  }
}

// ---------------------------------------------------------------------------
// SimMutex / SimCondition

void SimMutex::Lock() {
  Simulator* sim = waiters_.simulator();
  SimThread* self = sim->current_thread();
  assert(self != nullptr && "SimMutex requires thread context");
  while (owner_ != nullptr) {
    self->WaitOn(&waiters_);
  }
  owner_ = self;
}

void SimMutex::Unlock() {
  SimThread* self = waiters_.simulator()->current_thread();
  if (owner_ != self) {
    // Only legal during forced unwind: a SimCondition::Wait interrupted by
    // shutdown/kill never reacquired the mutex, but the RAII lock guard
    // still runs. Outside unwind this is a bug.
    assert(std::uncaught_exceptions() > 0);
    return;
  }
  owner_ = nullptr;
  waiters_.NotifyOne();
}

bool SimCondition::Wait(SimMutex* mu, SimTime deadline) {
  Simulator* sim = q_.simulator();
  SimThread* self = sim->current_thread();
  assert(self != nullptr);
  assert(mu->owner() == self);
  mu->Unlock();
  bool notified = self->WaitOn(&q_, deadline);
  mu->Lock();
  return notified;
}

}  // namespace psd
