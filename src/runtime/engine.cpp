#include "runtime/engine.h"

#include <algorithm>
#include <cassert>

#include "common/serial.h"
#include "crypto/hash.h"

namespace tpnr::runtime {

namespace {

/// Thread-local execution context: which engine/shard/endpoint the event
/// currently running on this thread belongs to, and its timestamp. Lets
/// Engine::now() / post_timer() resolve the right shard without any API
/// surface in actor code.
struct ExecContext {
  const Engine* engine = nullptr;
  std::uint32_t shard = 0;
  EndpointId endpoint = kNoEndpoint;
  SimTime now = 0;
};

thread_local ExecContext t_ctx;

/// Installs an execution context for one scope and restores the previous
/// one on exit, also when the task throws: otherwise `t_ctx` would keep
/// naming this engine, and a later engine at the same address would
/// inherit its endpoint and timestamp.
class ContextScope {
 public:
  explicit ContextScope(const ExecContext& ctx) : saved_(t_ctx) {
    t_ctx = ctx;
  }
  ~ContextScope() { t_ctx = saved_; }
  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  ExecContext saved_;
};

}  // namespace

NameId NameInterner::intern(std::string_view name) {
  std::string key(name);
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    auto it = ids_.find(key);
    if (it != ids_.end()) return it->second;
  }
  std::unique_lock<std::shared_mutex> lock(mutex_);
  auto it = ids_.find(key);  // re-check: another thread may have won the race
  if (it != ids_.end()) return it->second;
  const NameId id = static_cast<NameId>(names_.size());
  auto [inserted, ok] = ids_.emplace(std::move(key), id);
  (void)ok;
  names_.push_back(&inserted->first);
  return id;
}

std::optional<NameId> NameInterner::find(std::string_view name) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  auto it = ids_.find(std::string(name));
  if (it == ids_.end()) return std::nullopt;
  return it->second;
}

const std::string& NameInterner::name(NameId id) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return *names_[id];
}

std::size_t NameInterner::size() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return names_.size();
}

Engine::Engine(std::uint64_t seed, EngineOptions options)
    : seed_(seed), options_(options) {
  if (options_.shards == 0) options_.shards = 1;
  if (options_.workers == 0) options_.workers = 1;
  shards_.resize(options_.shards);
  for (Shard& shard : shards_) {
    shard.outbox.resize(options_.shards);
  }
}

Engine::~Engine() { stop_workers(); }

EndpointId Engine::endpoint(std::string_view name) {
  const EndpointId id = endpoints_.intern(name);
  if (id == endpoint_state_.size()) {
    EndpointState state;
    state.shard = id % static_cast<std::uint32_t>(shards_.size());
    endpoint_state_.push_back(std::move(state));
  }
  return id;
}

const std::string& Engine::endpoint_name(EndpointId id) const {
  return endpoints_.name(id);
}

std::uint32_t Engine::shard_of(EndpointId id) const {
  return endpoint_state_[id].shard;
}

crypto::Drbg& Engine::rng(EndpointId id) {
  EndpointState& state = endpoint_state_[id];
  if (!state.rng) {
    // Derive the stream from (seed, name) so it does not depend on the
    // endpoint's registration rank or on consumption interleaving.
    common::BinaryWriter w;
    w.u64(seed_);
    w.str(endpoints_.name(id));
    state.rng = std::make_unique<crypto::Drbg>(
        common::BytesView(crypto::sha256(w.take())));
  }
  return *state.rng;
}

std::uint64_t Engine::next_counter(EndpointId id) {
  return ++endpoint_state_[id].counter;
}

void Engine::post(EndpointId target, EndpointId origin, SimTime at,
                  Task task) {
  Event event;
  event.target = target;
  event.origin = origin;
  event.task = std::move(task);
  SimTime floor = 0;
  if (t_ctx.engine == this) {
    floor = t_ctx.now;
    // Conservative-window safety: anything that crosses shards must land at
    // or after the current window's end. The transport's delay model already
    // guarantees this (delays are clamped to >= lookahead for remote hops);
    // the clamp here is a backstop so a misbehaving caller degrades to a
    // slightly-later delivery instead of a determinism violation. Applied in
    // serial mode too, so serial and parallel runs stay bit-identical.
    if (target != kNoEndpoint && origin != kNoEndpoint &&
        shard_of(target) != shard_of(origin)) {
      floor = t_ctx.now + lookahead_;
    }
  }
  event.at = std::max(at, floor);
  if (origin == kNoEndpoint) {
    event.seq = ++external_seq_;
  } else {
    event.seq = ++endpoint_state_[origin].event_seq;
  }
  push_event(std::move(event));
}

void Engine::post_timer(SimTime delay, Task task) {
  if (delay < 0) delay = 0;
  if (t_ctx.engine == this && t_ctx.endpoint != kNoEndpoint) {
    post(t_ctx.endpoint, t_ctx.endpoint, t_ctx.now + delay, std::move(task));
  } else {
    post(kNoEndpoint, kNoEndpoint, clock_.now() + delay, std::move(task));
  }
}

void Engine::push_event(Event event) {
  if (event.target == kNoEndpoint) {
    external_.push(std::move(event));
    return;
  }
  const std::uint32_t target_shard = shard_of(event.target);
  if (fanout_active_ && t_ctx.engine == this && t_ctx.shard != target_shard &&
      t_ctx.endpoint != kNoEndpoint) {
    // Inside a worker-fanned-out round on a different shard: pushing into
    // the target queue directly would race with the thread executing that
    // shard, so stage in the outbox; the round barrier merges it. The
    // full-key comparator makes merge order independent of arrival order,
    // so this is determinism-neutral. Outside fanned-out rounds (serial
    // mode, single-busy-shard windows) the direct push is safe — and
    // REQUIRED in serial mode, which has no barrier to drain outboxes. The
    // cross-shard clamp in post() keeps the event out of the current window
    // either way.
    shards_[t_ctx.shard].outbox[target_shard].push_back(std::move(event));
    return;
  }
  shards_[target_shard].queue.push(std::move(event));
}

SimTime Engine::now() const {
  if (t_ctx.engine == this) return t_ctx.now;
  return clock_.now();
}

EndpointId Engine::current_endpoint() const {
  return t_ctx.engine == this ? t_ctx.endpoint : kNoEndpoint;
}

std::uint32_t Engine::current_bucket() const {
  if (t_ctx.engine == this && t_ctx.endpoint != kNoEndpoint) {
    return t_ctx.shard;
  }
  return shard_count();
}

const Event* Engine::peek_min() {
  const Event* best = external_.peek();
  EventLater later;
  for (Shard& shard : shards_) {
    const Event* top = shard.queue.peek();
    if (top == nullptr) continue;
    if (best == nullptr || later(*best, *top)) best = top;
  }
  return best;
}

void Engine::execute(Event event, std::uint32_t shard_index) {
  const ContextScope scope({this, shard_index, event.target, event.at});
  event.task();
}

bool Engine::serial_step() {
  const Event* min = peek_min();
  if (min == nullptr) return false;
  if (external_.peek() == min) {
    Event event = external_.pop();
    clock_.advance_to(event.at);
    execute(std::move(event), shard_count());
  } else {
    for (std::uint32_t s = 0; s < shards_.size(); ++s) {
      if (shards_[s].queue.peek() == min) {
        Event event = shards_[s].queue.pop();
        clock_.advance_to(event.at);
        shards_[s].local_now = event.at;
        execute(std::move(event), s);
        break;
      }
    }
  }
  ++stats_.events_executed;
  return true;
}

std::size_t Engine::run(std::size_t max_events) {
  if (options_.workers > 1 && shards_.size() > 1) {
    return run_parallel(max_events);
  }
  std::size_t processed = 0;
  while (processed < max_events && serial_step()) ++processed;
  return processed;
}

void Engine::process_shard_window(std::uint32_t shard_index,
                                  SimTime window_end) {
  Shard& shard = shards_[shard_index];
  for (;;) {
    const Event* head = shard.queue.peek();
    if (head == nullptr || head->at >= window_end) break;
    Event event = shard.queue.pop();
    shard.local_now = event.at;
    execute(std::move(event), shard_index);
    ++shard.executed;
  }
}

std::size_t Engine::run_parallel(std::size_t max_events) {
  start_workers();
  std::size_t processed = 0;
  while (processed < max_events) {
    const Event* min = peek_min();
    if (min == nullptr) break;
    const SimTime window_end = min->at + lookahead_;
    ++stats_.rounds;

    // Driver-originated events have no shard affinity: execute their window
    // serially (the global merge), which is always safe.
    const Event* external_head = external_.peek();
    if (external_head != nullptr && external_head->at < window_end) {
      while (processed < max_events) {
        const Event* head = peek_min();
        if (head == nullptr || head->at >= window_end) break;
        serial_step();
        ++processed;
      }
      continue;
    }

    std::uint32_t busy = 0;
    std::uint32_t only_shard = 0;
    for (std::uint32_t s = 0; s < shards_.size(); ++s) {
      const Event* head = shards_[s].queue.peek();
      if (head != nullptr && head->at < window_end) {
        ++busy;
        only_shard = s;
      }
    }
    if (busy <= 1) {
      // One shard active: run its window inline, no synchronization.
      shards_[only_shard].executed = 0;
      process_shard_window(only_shard, window_end);
      processed += shards_[only_shard].executed;
      stats_.events_executed += shards_[only_shard].executed;
    } else {
      ++stats_.parallel_rounds;
      for (Shard& shard : shards_) shard.executed = 0;
      {
        std::unique_lock<std::mutex> lock(pool_mutex_);
        round_window_end_ = window_end;
        round_next_shard_.store(0, std::memory_order_relaxed);
        round_busy_ = static_cast<std::uint32_t>(workers_.size());
        fanout_active_ = true;  // workers observe it via the mutex handoff
        ++round_id_;
        round_start_.notify_all();
        round_done_.wait(lock, [this] { return round_busy_ == 0; });
        fanout_active_ = false;
      }
      for (Shard& shard : shards_) {
        processed += shard.executed;
        stats_.events_executed += shard.executed;
      }
    }

    // Round barrier: merge cross-shard mailboxes into target queues and
    // advance the watermark. Merge order is irrelevant (full-key comparator).
    for (Shard& shard : shards_) {
      for (std::uint32_t target = 0; target < shard.outbox.size(); ++target) {
        stats_.cross_shard_events += shard.outbox[target].size();
        for (Event& event : shard.outbox[target]) {
          shards_[target].queue.push(std::move(event));
        }
        shard.outbox[target].clear();
      }
    }
    SimTime watermark = clock_.now();
    for (const Shard& shard : shards_) {
      watermark = std::max(watermark, shard.local_now);
    }
    clock_.advance_to(watermark);
  }
  return processed;
}

void Engine::start_workers() {
  if (!workers_.empty()) return;
  const std::uint32_t count = std::min<std::uint32_t>(
      options_.workers, static_cast<std::uint32_t>(shards_.size()));
  workers_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void Engine::stop_workers() {
  if (workers_.empty()) return;
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    shutdown_ = true;
    round_start_.notify_all();
  }
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
}

void Engine::worker_loop() {
  std::uint64_t seen_round = 0;
  for (;;) {
    SimTime window_end;
    {
      std::unique_lock<std::mutex> lock(pool_mutex_);
      round_start_.wait(lock, [this, seen_round] {
        return shutdown_ || round_id_ != seen_round;
      });
      if (shutdown_) return;
      seen_round = round_id_;
      window_end = round_window_end_;
    }
    // Claim shards until none remain. Shard state is only touched by the
    // claiming thread this round; the pool mutex orders rounds.
    const std::uint32_t shard_count_u =
        static_cast<std::uint32_t>(shards_.size());
    for (;;) {
      const std::uint32_t s =
          round_next_shard_.fetch_add(1, std::memory_order_relaxed);
      if (s >= shard_count_u) break;
      // process_shard_window peeks (and so may cascade wheel buckets), but
      // only this thread touches shard s during the round.
      process_shard_window(s, window_end);
    }
    {
      std::lock_guard<std::mutex> lock(pool_mutex_);
      if (--round_busy_ == 0) round_done_.notify_all();
    }
  }
}

bool Engine::idle() const {
  if (!external_.empty()) return false;
  for (const Shard& shard : shards_) {
    if (!shard.queue.empty()) return false;
  }
  return true;
}

}  // namespace tpnr::runtime
