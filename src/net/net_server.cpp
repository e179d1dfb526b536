#include "net/net_server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>

#include "util/error.hpp"
#include "util/log.hpp"

namespace vizcache {
namespace {

constexpr u64 kWakeToken = 0;
constexpr u64 kListenToken = 1;
constexpr u64 kFirstConnId = 2;

/// Per-wakeup budget of bytes buffered off one socket — bounds a flooder's
/// rbuf; the rest stays in the kernel until the connection catches up.
constexpr usize kReadBudget = 64 * 1024;

u64 loop_now_ms() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

}  // namespace

void NetServer::CompletionQueue::push(Completion completion) {
  MutexLock lock(mutex_);
  items_.push_back(std::move(completion));
}

std::vector<NetServer::Completion> NetServer::CompletionQueue::drain() {
  MutexLock lock(mutex_);
  std::vector<Completion> out;
  out.swap(items_);
  return out;
}

NetServer::NetServer(BlockService& service, NetServerConfig config)
    : service_(service), config_(config) {
  VIZ_REQUIRE(config_.workers >= 1, "NetServer needs at least one worker");
}

NetServer::~NetServer() { stop(); }

void NetServer::start() {
  VIZ_REQUIRE(!started_.load(), "NetServer::start called twice");

  MetricsRegistry& reg = service_.metrics();
  ins_.accepted = &reg.counter("net.connections.accepted");
  ins_.closed = &reg.counter("net.connections.closed");
  ins_.rejected = &reg.counter("net.connections.rejected");
  ins_.active = &reg.gauge("net.connections.active");
  ins_.frames_received = &reg.counter("net.frames.received");
  ins_.frames_sent = &reg.counter("net.frames.sent");
  ins_.bytes_read = &reg.counter("net.bytes.read");
  ins_.bytes_written = &reg.counter("net.bytes.written");
  ins_.malformed = &reg.counter("net.errors.malformed");
  ins_.backpressure_closed = &reg.counter("net.backpressure.closed");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw IoError("NetServer: socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(listen_fd_, 512) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw IoError("NetServer: bind/listen failed");
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    ::close(listen_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    listen_fd_ = epoll_fd_ = wake_fd_ = -1;
    throw IoError("NetServer: epoll/eventfd setup failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeToken;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  ev.data.u64 = kListenToken;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);

  pool_ = std::make_unique<ThreadPool>(config_.workers);
  started_.store(true);
  loop_thread_ = std::thread([this] { loop(); });
  VIZ_LOG_INFO << "net: serving on 127.0.0.1:" << port_ << " ("
               << config_.workers << " workers)";
}

void NetServer::stop() {
  if (!started_.load() || stopped_.exchange(true)) return;
  stopping_.store(true);
  wake();
  if (loop_thread_.joinable()) loop_thread_.join();
  pool_->shutdown();
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  epoll_fd_ = wake_fd_ = -1;
  VIZ_LOG_INFO << "net: stopped (port " << port_ << ")";
}

void NetServer::wake() {
  const u64 one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof one);
}

void NetServer::loop() {
  std::vector<epoll_event> events(128);
  bool draining = false;
  for (;;) {
    const int n =
        ::epoll_wait(epoll_fd_, events.data(),
                     static_cast<int>(events.size()), /*timeout_ms=*/200);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // fatal epoll failure: fall through to teardown below
    }
    for (int i = 0; i < n; ++i) {
      const u64 token = events[i].data.u64;
      if (token == kWakeToken) {
        u64 buf = 0;
        while (::read(wake_fd_, &buf, sizeof buf) == sizeof buf) {
        }
      } else if (token == kListenToken) {
        accept_ready();
      } else {
        handle_conn_event(token, events[i].events);
      }
    }
    process_completions();
    check_write_stalls(loop_now_ms());
    if (stopping_.load() && !draining) {
      draining = true;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    }
    if (draining) {
      bool pending = false;
      for (const auto& [id, conn] : conns_) {
        if (conn.op_pending) {
          pending = true;
          break;
        }
      }
      if (!pending) break;  // every worker reply has been applied
    }
  }
  teardown_all();
}

void NetServer::accept_ready() {
  const u64 now = loop_now_ms();
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient accept error: wait for the next event
    }
    if (stopping_.load() || conns_.size() >= config_.max_connections) {
      // Count before the frame leaves: a client that has observed the
      // rejection (error frame or the close) must also observe the counter.
      ins_.rejected->inc();
      const std::vector<u8> err =
          encode_error(stopping_.load() ? NetErrorCode::kShutdown
                                        : NetErrorCode::kOverloaded,
                       "server not accepting connections");
      (void)::send(fd, err.data(), err.size(), MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    if (config_.so_sndbuf_bytes > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &config_.so_sndbuf_bytes,
                   sizeof(int));
    }
    Connection conn;
    conn.fd = fd;
    conn.id = next_conn_id_ < kFirstConnId ? kFirstConnId : next_conn_id_;
    next_conn_id_ = conn.id + 1;
    conn.last_progress_ms = now;
    conn.epoll_events = EPOLLIN;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn.id;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    conns_.emplace(conn.id, std::move(conn));
    ins_.accepted->inc();
    conn_count_.store(conns_.size());
    ins_.active->set(static_cast<double>(conns_.size()));
  }
}

void NetServer::handle_conn_event(u64 id, u32 events) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;  // destroyed earlier in this batch
  if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
    handle_disconnect(it->second);
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    flush(it->second);
    it = conns_.find(id);  // flush may have destroyed the connection
    if (it == conns_.end()) return;
  }
  if ((events & EPOLLIN) != 0) read_ready(it->second);
}

void NetServer::handle_disconnect(Connection& conn) {
  if (conn.op_pending) {
    // A worker still holds this connection's request; keep the bookkeeping
    // entry (and its session) alive until the completion lands, then reap.
    if (conn.fd >= 0) ::close(conn.fd);  // epoll deregisters automatically
    conn.fd = -1;
    conn.state = ConnState::kZombie;
    return;
  }
  destroy_conn(conn.id);
}

void NetServer::read_ready(Connection& conn) {
  usize budget = kReadBudget;
  for (;;) {
    u8 buf[16384];
    const usize want = std::min(budget, sizeof buf);
    if (want == 0) break;
    const ssize_t r = ::recv(conn.fd, buf, want, 0);
    if (r > 0) {
      conn.rbuf.insert(conn.rbuf.end(), buf, buf + r);
      conn.last_progress_ms = loop_now_ms();
      ins_.bytes_read->inc(static_cast<u64>(r));
      budget -= static_cast<usize>(r);
      continue;
    }
    if (r == 0) {
      handle_disconnect(conn);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    handle_disconnect(conn);
    return;
  }
  parse_frames(conn);
}

void NetServer::parse_frames(Connection& conn) {
  usize pos = 0;
  while (conn.state == ConnState::kServing && !conn.op_pending &&
         pending_write_bytes(conn) <= config_.max_write_queue_bytes) {
    ParsedFrame frame;
    const ParseStatus status =
        try_parse_frame(std::span<const u8>(conn.rbuf).subspan(pos),
                        kMaxRequestPayload, frame);
    if (status == ParseStatus::kNeedMore) break;
    if (status == ParseStatus::kTooLarge) {
      fail_conn(conn, NetErrorCode::kFrameTooLarge,
                "frame length outside the accepted range");
      break;
    }
    ins_.frames_received->inc();
    pos += frame.frame_bytes;
    dispatch(conn, frame);
  }
  if (pos > 0) {
    conn.rbuf.erase(conn.rbuf.begin(),
                    conn.rbuf.begin() + static_cast<std::ptrdiff_t>(pos));
  }
  update_events(conn);
}

void NetServer::dispatch(Connection& conn, const ParsedFrame& frame) {
  switch (frame.type) {
    case FrameType::kOpen:
      if (!frame.body.empty()) {
        fail_conn(conn, NetErrorCode::kMalformed, "OPEN carries a body");
      } else if (conn.session) {
        fail_conn(conn, NetErrorCode::kSessionOpen,
                  "connection already holds a session");
      } else {
        submit_open(conn);
      }
      return;
    case FrameType::kStep: {
      if (!conn.session) {
        fail_conn(conn, NetErrorCode::kNoSession, "STEP before OPEN");
        return;
      }
      const std::optional<Camera> camera = decode_step(frame.body);
      if (!camera) {
        fail_conn(conn, NetErrorCode::kMalformed, "undecodable STEP body");
        return;
      }
      submit_step(conn, *camera);
      return;
    }
    case FrameType::kFetch: {
      if (!conn.session) {
        fail_conn(conn, NetErrorCode::kNoSession, "FETCH before OPEN");
        return;
      }
      const std::optional<BlockId> block = decode_fetch(frame.body);
      if (!block) {
        fail_conn(conn, NetErrorCode::kMalformed, "undecodable FETCH body");
        return;
      }
      if (*block >= service_.grid().block_count()) {
        // Application-level error: reply and keep serving the connection.
        enqueue(conn, encode_error(NetErrorCode::kBadBlock,
                                   "block id out of range"));
        return;
      }
      submit_fetch(conn, *block);
      return;
    }
    case FrameType::kClose:
      if (!frame.body.empty()) {
        fail_conn(conn, NetErrorCode::kMalformed, "CLOSE carries a body");
      } else if (!conn.session) {
        fail_conn(conn, NetErrorCode::kNoSession, "CLOSE before OPEN");
      } else {
        submit_close(conn);
      }
      return;
    default:
      fail_conn(conn, NetErrorCode::kUnknownType, "unknown frame type");
      return;
  }
}

void NetServer::submit_open(Connection& conn) {
  conn.op_pending = true;
  const u64 cid = conn.id;
  pool_->submit([this, cid] {
    Completion completion;
    completion.conn = cid;
    try {
      if (const std::optional<SessionId> sid = service_.open_session()) {
        completion.opened = *sid;
        completion.frame = encode_open_ok(*sid);
      } else {
        completion.frame =
            encode_error(NetErrorCode::kRejected, "max sessions reached");
      }
    } catch (const VizError& e) {
      completion.frame = encode_error(NetErrorCode::kInternal, e.what());
      completion.close_after = true;
    }
    completions_.push(std::move(completion));
    wake();
  });
}

void NetServer::submit_step(Connection& conn, const Camera& camera) {
  conn.op_pending = true;
  const u64 cid = conn.id;
  const SessionId session = *conn.session;
  pool_->submit([this, cid, session, camera] {
    Completion completion;
    completion.conn = cid;
    try {
      completion.frame = encode_step_ok(service_.step(session, camera));
    } catch (const VizError& e) {
      completion.frame = encode_error(NetErrorCode::kInternal, e.what());
      completion.close_after = true;
    }
    completions_.push(std::move(completion));
    wake();
  });
}

void NetServer::submit_fetch(Connection& conn, BlockId block) {
  conn.op_pending = true;
  const u64 cid = conn.id;
  const SessionId session = *conn.session;
  pool_->submit([this, cid, session, block] {
    Completion completion;
    completion.conn = cid;
    try {
      const BlockService::BlockFetch bf = service_.fetch_block(session, block);
      completion.frame =
          encode_fetch_ok(block, bf.fetch.fast_hit, bf.fetch.coalesced,
                          bf.fetch.seconds, bf.bytes);
    } catch (const VizError& e) {
      completion.frame = encode_error(NetErrorCode::kInternal, e.what());
      completion.close_after = true;
    }
    completions_.push(std::move(completion));
    wake();
  });
}

void NetServer::submit_close(Connection& conn) {
  conn.op_pending = true;
  const u64 cid = conn.id;
  const SessionId session = *conn.session;
  pool_->submit([this, cid, session] {
    Completion completion;
    completion.conn = cid;
    try {
      completion.frame = encode_close_ok(service_.close_session(session));
      completion.closed_session = true;
    } catch (const VizError& e) {
      completion.frame = encode_error(NetErrorCode::kInternal, e.what());
      completion.close_after = true;
    }
    completions_.push(std::move(completion));
    wake();
  });
}

void NetServer::process_completions() {
  for (Completion& completion : completions_.drain()) {
    apply_completion(completion);
  }
}

void NetServer::apply_completion(Completion& completion) {
  auto it = conns_.find(completion.conn);
  if (it == conns_.end()) {
    // The connection is gone without leaving a zombie (should not happen,
    // but never leak a session the worker opened meanwhile).
    if (completion.opened) close_session_quietly(*completion.opened);
    return;
  }
  Connection& conn = it->second;
  conn.op_pending = false;
  if (completion.opened) conn.session = *completion.opened;
  if (completion.closed_session) conn.session.reset();
  if (conn.state == ConnState::kZombie) {
    destroy_conn(conn.id);  // reaps any session the connection still holds
    return;
  }
  enqueue(conn, std::move(completion.frame));
  if (completion.close_after && conn.state == ConnState::kServing) {
    conn.state = ConnState::kDraining;
  }
  parse_frames(conn);  // serve the next pipelined request, refresh epoll mask
}

void NetServer::enqueue(Connection& conn, std::vector<u8> frame) {
  conn.wbuf.insert(conn.wbuf.end(), frame.begin(), frame.end());
  ins_.frames_sent->inc();
  update_events(conn);
}

void NetServer::fail_conn(Connection& conn, NetErrorCode code,
                          const char* message) {
  if (conn.state != ConnState::kServing) return;
  if (code == NetErrorCode::kMalformed || code == NetErrorCode::kFrameTooLarge ||
      code == NetErrorCode::kUnknownType) {
    ins_.malformed->inc();
  }
  enqueue(conn, encode_error(code, message));
  if (error_closes_connection(code)) conn.state = ConnState::kDraining;
}

void NetServer::flush(Connection& conn) {
  while (conn.wpos < conn.wbuf.size()) {
    const ssize_t s = ::send(conn.fd, conn.wbuf.data() + conn.wpos,
                             conn.wbuf.size() - conn.wpos, MSG_NOSIGNAL);
    if (s > 0) {
      conn.wpos += static_cast<usize>(s);
      conn.last_progress_ms = loop_now_ms();
      ins_.bytes_written->inc(static_cast<u64>(s));
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    handle_disconnect(conn);
    return;
  }
  if (conn.wpos == conn.wbuf.size()) {
    conn.wbuf.clear();
    conn.wpos = 0;
    if (conn.state == ConnState::kDraining) {
      destroy_conn(conn.id);  // error/shutdown reply delivered: close
      return;
    }
  }
  // Draining below the bound lifts the backpressure pause; requests that
  // were already buffered in rbuf get no further socket event, so parse
  // them now (parse_frames refreshes the epoll mask either way).
  parse_frames(conn);
}

void NetServer::update_events(Connection& conn) {
  if (conn.fd < 0) return;
  u32 want = 0;
  // Backpressure: reading pauses while a request is in flight or while the
  // client has not drained its replies below the write-queue bound.
  if (conn.state == ConnState::kServing && !conn.op_pending &&
      pending_write_bytes(conn) <= config_.max_write_queue_bytes) {
    want |= EPOLLIN;
  }
  if (pending_write_bytes(conn) > 0) want |= EPOLLOUT;
  if (want == conn.epoll_events) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.u64 = conn.id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  conn.epoll_events = want;
}

void NetServer::check_write_stalls(u64 now_ms) {
  if (config_.write_stall_timeout_ms == 0) return;
  std::vector<u64> stalled;
  for (const auto& [id, conn] : conns_) {
    if (conn.fd < 0 || pending_write_bytes(conn) == 0) continue;
    if (now_ms - conn.last_progress_ms > config_.write_stall_timeout_ms) {
      stalled.push_back(id);
    }
  }
  for (const u64 id : stalled) {
    ins_.backpressure_closed->inc();
    handle_disconnect(conns_.at(id));
  }
}

void NetServer::close_session_quietly(SessionId session) {
  try {
    service_.close_session(session);
  } catch (const VizError&) {
    // Already closed by the request that raced the disconnect.
  }
}

void NetServer::destroy_conn(u64 id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Connection& conn = it->second;
  if (conn.session) close_session_quietly(*conn.session);
  if (conn.fd >= 0) ::close(conn.fd);
  conns_.erase(it);
  ins_.closed->inc();
  conn_count_.store(conns_.size());
  ins_.active->set(static_cast<double>(conns_.size()));
}

void NetServer::teardown_all() {
  const std::vector<u8> notice =
      encode_error(NetErrorCode::kShutdown, "server shutting down");
  std::vector<u64> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) {
    ids.push_back(id);
    if (conn.fd >= 0 && conn.state == ConnState::kServing) {
      (void)::send(conn.fd, notice.data(), notice.size(), MSG_NOSIGNAL);
    }
  }
  for (const u64 id : ids) destroy_conn(id);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
}

}  // namespace vizcache
