#include "perfbench/spans.h"

namespace psd::bench {

int SpanLog::Begin(Simulator* sim, const char* name, uint64_t req) {
  const void* key = sim != nullptr ? static_cast<const void*>(sim->current_thread()) : nullptr;
  std::vector<int>& stack = open_[key];
  int parent = stack.empty() ? -1 : stack.back();
  if (req == 0 && parent >= 0) {
    req = spans_[static_cast<size_t>(parent)].req;
  }
  SimTime now = sim != nullptr ? sim->Now() : 0;
  spans_.push_back(Span{name, req, parent, now, now, HostNs(), 0});
  int id = static_cast<int>(spans_.size() - 1);
  stack.push_back(id);
  return id;
}

void SpanLog::End(Simulator* sim, int id) {
  Span& s = spans_[static_cast<size_t>(id)];
  s.v_end = sim != nullptr ? sim->Now() : 0;
  s.h_end_ns = HostNs();
  const void* key = sim != nullptr ? static_cast<const void*>(sim->current_thread()) : nullptr;
  std::vector<int>& stack = open_[key];
  // Spans close LIFO per fiber; a fiber unwound at World teardown leaves
  // its spans open, so pop down to this one.
  while (!stack.empty() && stack.back() != id) {
    stack.pop_back();
  }
  if (!stack.empty()) {
    stack.pop_back();
  }
}

void SpanLog::WriteJson(std::FILE* f) const {
  std::fputs("[", f);
  for (size_t i = 0; i < spans_.size(); i++) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"id\":%zu,\"name\":\"%s\",\"req\":%llu,\"parent\":%d,"
                 "\"v_begin_ns\":%lld,\"v_end_ns\":%lld,\"h_begin_ns\":%.0f,\"h_end_ns\":%.0f}",
                 i == 0 ? "" : ",", i, s.name, static_cast<unsigned long long>(s.req), s.parent,
                 static_cast<long long>(s.v_begin), static_cast<long long>(s.v_end), s.h_begin_ns,
                 s.h_end_ns);
  }
  std::fputs("]", f);
}

const char* ApiOpName(ApiOp op) {
  switch (op) {
    case ApiOp::kSend:
      return "send";
    case ApiOp::kRecv:
      return "recv";
    case ApiOp::kConnect:
      return "connect";
    case ApiOp::kAccept:
      return "accept";
    case ApiOp::kClose:
      return "close";
    case ApiOp::kPollWait:
      return "pollwait";
    case ApiOp::kNumOps:
      break;
  }
  return "?";
}

constexpr ApiOp kUntimed = ApiOp::kNumOps;

Result<int> TimedApi::CreateSocket(IpProto proto) {
  return Timed("api.socket", kUntimed, [&] { return inner_->CreateSocket(proto); });
}
Result<void> TimedApi::Bind(int fd, SockAddrIn local) {
  return Timed("api.bind", kUntimed, [&] { return inner_->Bind(fd, local); });
}
Result<void> TimedApi::Listen(int fd, int backlog) {
  return Timed("api.listen", kUntimed, [&] { return inner_->Listen(fd, backlog); });
}
Result<int> TimedApi::Accept(int fd, SockAddrIn* peer) {
  return Timed("api.accept", ApiOp::kAccept, [&] { return inner_->Accept(fd, peer); });
}
Result<void> TimedApi::Connect(int fd, SockAddrIn remote) {
  return Timed("api.connect", ApiOp::kConnect, [&] { return inner_->Connect(fd, remote); });
}
Result<size_t> TimedApi::Send(int fd, const uint8_t* data, size_t len, const SockAddrIn* to) {
  return Timed("api.send", ApiOp::kSend, [&] { return inner_->Send(fd, data, len, to); });
}
Result<size_t> TimedApi::Recv(int fd, uint8_t* out, size_t len, SockAddrIn* from, bool peek) {
  return Timed("api.recv", ApiOp::kRecv, [&] { return inner_->Recv(fd, out, len, from, peek); });
}
Result<size_t> TimedApi::SendShared(int fd, std::shared_ptr<const std::vector<uint8_t>> buf,
                                    size_t off, size_t len, const SockAddrIn* to) {
  return Timed("api.send_shared", kUntimed,
               [&] { return inner_->SendShared(fd, std::move(buf), off, len, to); });
}
Result<Chain> TimedApi::RecvChain(int fd, size_t max, SockAddrIn* from) {
  return Timed("api.recv_chain", kUntimed, [&] { return inner_->RecvChain(fd, max, from); });
}
Result<void> TimedApi::SetOpt(int fd, SockOpt opt, size_t value) {
  return Timed("api.setopt", kUntimed, [&] { return inner_->SetOpt(fd, opt, value); });
}
Result<void> TimedApi::Shutdown(int fd, bool rd, bool wr) {
  return Timed("api.shutdown", kUntimed, [&] { return inner_->Shutdown(fd, rd, wr); });
}
Result<void> TimedApi::Close(int fd) {
  return Timed("api.close", ApiOp::kClose, [&] { return inner_->Close(fd); });
}
Result<int> TimedApi::Select(SelectFds* fds, SimDuration timeout) {
  return Timed("api.select", kUntimed, [&] { return inner_->Select(fds, timeout); });
}
Result<int> TimedApi::PollCreate() {
  return Timed("api.poll_create", kUntimed, [&] { return inner_->PollCreate(); });
}
Result<void> TimedApi::PollAdd(int pfd, int fd, uint32_t events) {
  return Timed("api.poll_add", kUntimed, [&] { return inner_->PollAdd(pfd, fd, events); });
}
Result<void> TimedApi::PollRemove(int pfd, int fd) {
  return Timed("api.poll_remove", kUntimed, [&] { return inner_->PollRemove(pfd, fd); });
}
Result<int> TimedApi::PollWait(int pfd, std::vector<PollEvent>* out, SimDuration timeout) {
  return Timed("api.pollwait", ApiOp::kPollWait,
               [&] { return inner_->PollWait(pfd, out, timeout); });
}
Result<void> TimedApi::PollClose(int pfd) {
  return Timed("api.poll_close", kUntimed, [&] { return inner_->PollClose(pfd); });
}
SockAddrIn TimedApi::LocalAddr(int fd) {
  return Timed("api.localaddr", kUntimed, [&] { return inner_->LocalAddr(fd); });
}

namespace {

// The call id of a src/proto/rpc.h message: 8 bytes little-endian.
uint64_t CallId(const uint8_t* p, size_t len) {
  uint64_t id = 0;
  for (size_t i = 0; i < 8 && i < len; i++) {
    id |= static_cast<uint64_t>(p[i]) << (8 * i);
  }
  return id;
}

}  // namespace

Result<void> TimedMsgStream::SendMsg(const uint8_t* data, size_t len) {
  uint64_t id = CallId(data, len);
  if (rtt_ != nullptr) {
    sent_at_ = sim_->Now();
    if (log_ != nullptr) {
      call_span_ = log_->Begin(sim_, "rpc.call", id);
    }
  }
  ScopedSpan span(log_, sim_, "pfx.send", id);
  return inner_->SendMsg(data, len);
}

Result<size_t> TimedMsgStream::RecvMsg(uint8_t* out, size_t cap) {
  Result<size_t> r = [&] {
    ScopedSpan span(log_, sim_, "pfx.recv");
    return inner_->RecvMsg(out, cap);
  }();
  if (rtt_ != nullptr && r.ok()) {
    rtt_->push_back(sim_->Now() - sent_at_);
    if (call_span_ >= 0) {
      log_->End(sim_, call_span_);
      call_span_ = -1;
    }
  }
  return r;
}

}  // namespace psd::bench
