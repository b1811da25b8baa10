// Sharded deterministic discrete-event runtime.
//
// The engine owns N logical shards, each with its own event queue. Every
// endpoint (an actor, a network host) is registered once and pinned to a
// shard; events that target an endpoint execute on its shard. Cross-shard
// traffic flows through per-shard mailboxes that are merged at round
// barriers.
//
// Determinism is the design center: every event carries a content-derived
// merge key (timestamp, origin endpoint, per-origin sequence number), so the
// execution order observed by any endpoint is a pure function of the seed
// and the program — independent of the shard count and of whether worker
// threads are enabled. Randomness is never drawn from a global stream
// consumed in arrival order; each endpoint owns a Drbg derived from
// (engine seed, endpoint name), so sampling order is also shard-invariant.
//
// Parallel execution uses conservative windows: a round executes, on every
// shard concurrently, all events in [T, T + lookahead), where `lookahead`
// is the transport's minimum cross-endpoint delay. Any event created during
// the round lands at or after the window end, so shards cannot affect each
// other mid-round; per-endpoint observable order therefore matches the
// serial merge exactly.
//
// Rules for parallel runs (serial runs have no such constraints):
//  * a task may only originate events (sends, timers) from endpoints on the
//    shard it is executing on — normally itself;
//  * endpoints must be registered before run();
//  * driver-originated timers force their round to execute serially.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "crypto/drbg.h"
#include "runtime/event.h"
#include "runtime/timer_wheel.h"

namespace tpnr::runtime {

using common::SimTime;

class CryptoService;

/// String -> dense id interner. Lookup is one hash probe; the reverse
/// mapping is an index into a vector, so the hot path never compares or
/// copies strings. Internally synchronized (reader/writer lock) because new
/// topics can be interned from handler code running on worker threads; the
/// common case — the name already exists — takes only the shared lock.
class NameInterner {
 public:
  NameId intern(std::string_view name);
  [[nodiscard]] std::optional<NameId> find(std::string_view name) const;
  /// The returned reference stays valid for the interner's lifetime (it
  /// points into a node-stable map key).
  [[nodiscard]] const std::string& name(NameId id) const;
  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::shared_mutex mutex_;
  std::unordered_map<std::string, NameId> ids_;
  std::vector<const std::string*> names_;  // points into ids_ keys (stable)
};

struct EngineOptions {
  std::uint32_t shards = 1;   ///< logical shards; endpoints are round-robined
  std::uint32_t workers = 1;  ///< worker threads; > 1 enables parallel rounds
};

struct EngineStats {
  std::uint64_t events_executed = 0;
  std::uint64_t rounds = 0;           ///< parallel-mode windows processed
  std::uint64_t parallel_rounds = 0;  ///< rounds fanned out to workers
  std::uint64_t cross_shard_events = 0;
};

class Engine {
 public:
  using Task = std::function<void()>;

  explicit Engine(std::uint64_t seed, EngineOptions options = EngineOptions{});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Interns `name` and registers it as an endpoint (idempotent). Endpoints
  /// are assigned to shards round-robin in registration order, which is
  /// program order — the assignment is deterministic.
  EndpointId endpoint(std::string_view name);
  [[nodiscard]] const std::string& endpoint_name(EndpointId id) const;
  [[nodiscard]] std::uint32_t shard_of(EndpointId id) const;
  [[nodiscard]] std::uint32_t shard_count() const noexcept {
    return static_cast<std::uint32_t>(shards_.size());
  }

  /// Per-endpoint deterministic random stream, derived from
  /// (engine seed, endpoint name) — NOT from consumption order.
  crypto::Drbg& rng(EndpointId id);

  /// Per-endpoint monotone counter (envelope ids and similar), deterministic
  /// for the same reason the rng is.
  std::uint64_t next_counter(EndpointId id);

  /// Posts `task` to run at absolute sim-time `at` on `target`'s shard.
  /// `origin` (the causal sender; kNoEndpoint for driver code) and a
  /// per-origin sequence number form the deterministic merge key. Cross-
  /// shard posts are clamped to at least now() + lookahead so conservative
  /// windows stay safe; same-shard posts are clamped only to now().
  void post(EndpointId target, EndpointId origin, SimTime at, Task task);

  /// Schedules `task` at now() + delay on the shard of the endpoint whose
  /// event is currently executing (the timer binds to that endpoint). From
  /// driver code it lands on the external queue, which is always executed
  /// serially.
  void post_timer(SimTime delay, Task task);

  /// Current sim-time: the executing event's timestamp inside a task, the
  /// global high-watermark outside.
  [[nodiscard]] SimTime now() const;

  /// Global high-watermark clock (advanced as events execute). Prefer
  /// now(): during parallel rounds the watermark lags shard-local time by
  /// up to one lookahead window.
  [[nodiscard]] common::SimClock& clock() noexcept { return clock_; }

  /// Endpoint whose event is currently executing (kNoEndpoint outside).
  [[nodiscard]] EndpointId current_endpoint() const;
  /// Shard currently executing on this thread (for per-shard accounting);
  /// shard_count() when called outside any event (the external bucket).
  [[nodiscard]] std::uint32_t current_bucket() const;

  /// Minimum cross-endpoint event delay the transport guarantees; also the
  /// width of a parallel round window. Clamped to >= 1 microsecond.
  void set_lookahead(SimTime lookahead) noexcept {
    lookahead_ = lookahead < 1 ? 1 : lookahead;
  }
  [[nodiscard]] SimTime lookahead() const noexcept { return lookahead_; }

  /// Executes events until the queues drain or ~max_events were processed
  /// (exact in serial mode; checked at window boundaries in parallel mode).
  std::size_t run(std::size_t max_events);

  [[nodiscard]] bool idle() const;
  [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }

  /// The per-shard crypto batching service (see crypto_service.h). The
  /// engine flushes it at the observability points its determinism contract
  /// requires; actors reach it through this accessor to submit work.
  [[nodiscard]] CryptoService& crypto_service() noexcept {
    return *crypto_service_;
  }

 private:
  friend class CryptoService;

  /// Runs `fn` as if inside an event executing at (`shard`, `endpoint`,
  /// `now`): CryptoService completions use this so everything they post
  /// carries the same merge keys as inline execution would have produced.
  void run_in_context(std::uint32_t shard, EndpointId endpoint, SimTime now,
                      const std::function<void()>& fn);
  struct EndpointState {
    std::uint32_t shard = 0;
    std::unique_ptr<crypto::Drbg> rng;  ///< lazily derived from (seed, name)
    std::uint64_t counter = 0;
    std::uint64_t event_seq = 0;
  };

  struct Shard {
    TimerWheel queue;
    SimTime local_now = 0;
    std::uint64_t executed = 0;  ///< events executed in the current round
    /// Cross-shard events produced during a parallel round, keyed by target
    /// shard; merged into target queues at the round barrier.
    std::vector<std::vector<Event>> outbox;
  };

  void execute(Event event, std::uint32_t shard_index);
  void push_event(Event event);
  /// Pops and executes the globally-minimal event. Returns false when idle.
  bool serial_step();
  /// Not const: peeking a timer wheel may cascade buckets internally.
  [[nodiscard]] const Event* peek_min();
  void process_shard_window(std::uint32_t shard_index, SimTime window_end);
  std::size_t run_parallel(std::size_t max_events);
  void start_workers();
  void stop_workers();
  void worker_loop();

  std::uint64_t seed_;
  EngineOptions options_;
  std::unique_ptr<CryptoService> crypto_service_;
  common::SimClock clock_;
  NameInterner endpoints_;
  std::vector<EndpointState> endpoint_state_;
  std::vector<Shard> shards_;
  TimerWheel external_;  ///< driver-originated timers, executed serially
  std::uint64_t external_seq_ = 0;
  SimTime lookahead_ = 1;
  EngineStats stats_;

  // Worker pool (parallel mode only).
  std::vector<std::thread> workers_;
  std::mutex pool_mutex_;
  std::condition_variable round_start_;
  std::condition_variable round_done_;
  std::uint64_t round_id_ = 0;
  SimTime round_window_end_ = 0;
  std::uint32_t round_busy_ = 0;
  /// True only while a round is fanned out to workers: cross-shard events
  /// must then go through outboxes instead of pushing into queues another
  /// thread may be draining. Written under pool_mutex_ before/after each
  /// round; the round handshake orders workers' reads.
  bool fanout_active_ = false;
  bool shutdown_ = false;
  std::atomic<std::uint32_t> round_next_shard_{0};
};

}  // namespace tpnr::runtime
