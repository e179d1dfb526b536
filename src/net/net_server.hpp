#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/protocol.hpp"
#include "service/block_service.hpp"
#include "util/annotated_mutex.hpp"
#include "util/thread_pool.hpp"

namespace vizcache {

struct NetServerConfig {
  /// TCP port to listen on; 0 picks an ephemeral port (read it via port()).
  u16 port = 0;

  /// Service executor threads. BlockService::step can block in the read
  /// coalescer, so requests run on workers, never on the event loop — that
  /// is also what lets two connections' fetches coalesce at all.
  usize workers = 2;

  /// Accepts beyond this are refused with a kOverloaded error frame.
  usize max_connections = 4096;

  /// Backpressure, part 1: once a connection's pending write bytes exceed
  /// this bound the server stops reading from it (no new requests accepted
  /// until the client drains).
  usize max_write_queue_bytes = usize{4} << 20;

  /// Backpressure, part 2: a connection whose pending writes make no
  /// progress for this long is dropped (net.backpressure.closed). 0 never
  /// drops.
  u64 write_stall_timeout_ms = 5000;

  /// When > 0, shrink SO_SNDBUF on accepted sockets — lets tests and the
  /// bench make a slow client overflow the write queue quickly.
  int so_sndbuf_bytes = 0;
};

/// Non-blocking epoll event-loop front-end serving the wire protocol of
/// protocol.hpp over TCP on behalf of one BlockService.
///
/// Threading: ONE event-loop thread owns every connection object and all
/// socket fds — no lock guards them. Service calls run on a ThreadPool and
/// hand their encoded reply back through CompletionQueue, the net layer's
/// only mutex (a leaf lock, per the DESIGN.md no-nesting rule: neither the
/// loop nor a worker ever calls BlockService or touches a socket while
/// holding it). At most one request per connection is in flight at a time —
/// replies stay in order and a flooding client queues in its own rbuf.
class NetServer {
 public:
  /// `service` must outlive the server.
  explicit NetServer(BlockService& service, NetServerConfig config = {});
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Bind, listen, and spawn the event loop. Throws IoError on bind failure.
  void start();

  /// Graceful shutdown: stop accepting, finish in-flight requests, close
  /// every live session, drop every connection, join the loop. Idempotent;
  /// also run by the destructor.
  void stop();

  /// The bound port (useful with config.port == 0).
  u16 port() const { return port_; }

  bool running() const { return started_ && !stopped_; }

  usize active_connections() const { return conn_count_.load(); }

 private:
  /// A worker's reply to the event loop. The loop applies these in arrival
  /// order; `opened`/`closed_session` keep the connection's session field in
  /// sync even when the connection died while the request was in flight.
  struct Completion {
    u64 conn = 0;
    std::vector<u8> frame;
    bool close_after = false;
    std::optional<SessionId> opened;
    bool closed_session = false;
  };

  /// The only lock in the net layer (leaf): workers push, the loop drains.
  class CompletionQueue {
   public:
    void push(Completion completion) EXCLUDES(mutex_);
    std::vector<Completion> drain() EXCLUDES(mutex_);

   private:
    Mutex mutex_;
    std::vector<Completion> items_ GUARDED_BY(mutex_);
  };

  enum class ConnState : u8 {
    kServing,   ///< reading requests, writing replies
    kDraining,  ///< error/shutdown reply queued: flush wbuf, then close
    kZombie,    ///< socket gone but a worker still holds the request
  };

  /// Owned exclusively by the event-loop thread.
  struct Connection {
    int fd = -1;
    u64 id = 0;
    ConnState state = ConnState::kServing;
    bool op_pending = false;
    std::optional<SessionId> session;
    std::vector<u8> rbuf;
    std::vector<u8> wbuf;
    usize wpos = 0;              ///< bytes of wbuf already sent
    u32 epoll_events = 0;        ///< mask currently registered with epoll
    u64 last_progress_ms = 0;    ///< loop clock at the last socket progress
  };

  struct Instruments {
    MetricCounter* accepted = nullptr;
    MetricCounter* closed = nullptr;
    MetricCounter* rejected = nullptr;
    MetricGauge* active = nullptr;
    MetricCounter* frames_received = nullptr;
    MetricCounter* frames_sent = nullptr;
    MetricCounter* bytes_read = nullptr;
    MetricCounter* bytes_written = nullptr;
    MetricCounter* malformed = nullptr;
    MetricCounter* backpressure_closed = nullptr;
  };

  void loop();
  void accept_ready();
  void handle_conn_event(u64 id, u32 events);
  void handle_disconnect(Connection& conn);
  void close_session_quietly(SessionId session);
  void read_ready(Connection& conn);
  void parse_frames(Connection& conn);
  void dispatch(Connection& conn, const ParsedFrame& frame);
  void submit_open(Connection& conn);
  void submit_step(Connection& conn, const Camera& camera);
  void submit_fetch(Connection& conn, BlockId block);
  void submit_close(Connection& conn);
  void process_completions();
  void apply_completion(Completion& completion);
  void enqueue(Connection& conn, std::vector<u8> frame);
  void fail_conn(Connection& conn, NetErrorCode code, const char* message);
  void flush(Connection& conn);
  void update_events(Connection& conn);
  void check_write_stalls(u64 now_ms);
  void destroy_conn(u64 id);
  void teardown_all();
  void wake();
  usize pending_write_bytes(const Connection& conn) const {
    return conn.wbuf.size() - conn.wpos;
  }

  BlockService& service_;
  const NetServerConfig config_;
  Instruments ins_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  u16 port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<usize> conn_count_{0};

  std::unique_ptr<ThreadPool> pool_;
  std::thread loop_thread_;
  CompletionQueue completions_;

  // Event-loop-thread state (never touched by workers or callers).
  std::unordered_map<u64, Connection> conns_;
  u64 next_conn_id_ = 1;
};

}  // namespace vizcache
