// Simulated network: a transport *policy* layer over the sharded
// deterministic runtime (runtime::Engine).
//
// The engine owns event queues, timers, shards, worker threads and
// per-endpoint random streams; this layer owns everything that makes a
// network a network — link quality (latency, jitter, bandwidth, loss,
// duplication, reordering, delay spikes), partitions, endpoint down
// windows, interposed adversaries, and traffic statistics.
//
// Endpoints register handlers; send() samples the link's fault model from
// the SENDER's deterministic Drbg stream and posts a delivery event on the
// receiver's shard; run() drains events in deterministic merge order,
// advancing the shared SimClock. Timers share the same event loop, which is
// how protocol time limits (§5.5) are driven.
//
// An adversary can be interposed on any link: it sees every traversing
// envelope and may pass, drop, modify, or inject — the basis of the §5
// attack harness. All randomness is seeded, so runs are bit-reproducible —
// for ANY shard count and worker count (see runtime/engine.h).
//
// Hot path: endpoint and topic names are interned to dense ids once;
// per-send work is id-indexed vector/flat-hash access, never a
// std::map<std::string, ...> probe. Latency-critical callers can cache ids
// (endpoint_id(), topic_id()) and use the id-based send() overload to skip
// string hashing entirely.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/error.h"
#include "common/payload.h"
#include "runtime/engine.h"

namespace tpnr::net {

using common::Bytes;
using common::BytesView;
using common::SimTime;
using EndpointId = runtime::EndpointId;
using TopicId = runtime::NameId;

/// A message in flight or delivered. The payload is a copy-on-write
/// common::Payload: duplicates, retransmissions, and fan-outs share one
/// allocation instead of copying the bytes.
struct Envelope {
  std::uint64_t id = 0;
  std::string from;
  std::string to;
  std::string topic;  ///< free-form dispatch hint ("nr.msg", "rest.req", ...)
  common::Payload payload;
  SimTime sent_at = 0;
  SimTime delivered_at = 0;
};

/// Per-link quality parameters. All probabilistic faults are sampled from
/// the sending endpoint's seeded Drbg stream, in a fixed order per send
/// (loss, jitter, spike, reorder, duplicate), so runs are bit-reproducible
/// regardless of shard or worker count.
struct LinkConfig {
  SimTime latency = 5 * common::kMillisecond;
  SimTime jitter = 0;                      ///< uniform extra in [0, jitter]
  double loss_probability = 0.0;           ///< independent per message
  std::uint64_t bandwidth_bytes_per_sec = 0;  ///< 0 = infinite
  /// Independent per message: deliver a second copy of the envelope, with
  /// its own freshly sampled delay.
  double duplicate_probability = 0.0;
  /// Independent per message: add a uniform extra delay in
  /// [1, reorder_window], which can violate FIFO relative to later sends.
  double reorder_probability = 0.0;
  SimTime reorder_window = 50 * common::kMillisecond;
  /// Independent per message: add `delay_spike` to the delivery delay
  /// (models a congestion burst / bufferbloat event).
  double delay_spike_probability = 0.0;
  SimTime delay_spike = 0;
};

/// Decision returned by an adversary for each observed envelope.
struct AdversaryAction {
  enum class Kind { kPass, kDrop, kModify } kind = Kind::kPass;
  Bytes modified_payload;  ///< used when kind == kModify
};

/// Interposed man-in-the-link. `on_message` is consulted for every envelope
/// crossing the link it is attached to; `inject` (via Network::send) can add
/// wholly new traffic.
using Adversary = std::function<AdversaryAction(const Envelope&)>;

/// Per-topic traffic counters: experiments that mix workloads on one network
/// (e.g. protocol traffic on "nr" vs audit traffic on "nr.audit") read these
/// to attribute overhead to the right subsystem.
struct TopicStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t bytes_delivered = 0;
  std::uint64_t messages_duplicated = 0;
  std::uint64_t messages_reordered = 0;
  std::uint64_t messages_dropped_loss = 0;
  std::uint64_t messages_dropped_adversary = 0;
  std::uint64_t messages_dropped_partition = 0;
  std::uint64_t messages_dropped_endpoint_down = 0;
};

/// Statistics for experiments. Conservation invariant (asserted in tests):
///   sent + duplicated ==
///       delivered + dropped_loss + dropped_adversary
///                 + dropped_partition + dropped_endpoint_down
/// once the event queue has drained (duplicates are extra deliveries that
/// were never counted as sent; every copy either lands or hits exactly one
/// drop bucket).
struct NetworkStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped_loss = 0;
  std::uint64_t messages_dropped_adversary = 0;
  std::uint64_t messages_dropped_partition = 0;
  std::uint64_t messages_dropped_endpoint_down = 0;
  std::uint64_t messages_duplicated = 0;
  std::uint64_t messages_reordered = 0;
  std::uint64_t messages_modified = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_delivered = 0;
  std::map<std::string, TopicStats> by_topic;

  /// Counters for `topic` (zeros if the topic never carried traffic).
  [[nodiscard]] TopicStats topic(const std::string& name) const {
    const auto it = by_topic.find(name);
    return it == by_topic.end() ? TopicStats{} : it->second;
  }
};

/// Sharding/threading knobs of the runtime engine underneath. The default
/// (1 shard, 1 worker) is the classic serial simulator; any combination
/// produces bit-identical protocol outcomes for the same seed.
using NetworkOptions = runtime::EngineOptions;

class Network {
 public:
  using Handler = std::function<void(const Envelope&)>;
  using TimerCallback = std::function<void()>;

  explicit Network(std::uint64_t seed = 1,
                   NetworkOptions options = NetworkOptions{});

  common::SimClock& clock() noexcept { return engine_.clock(); }
  /// Current sim-time: the executing event's timestamp inside a handler or
  /// timer, the global high-watermark outside.
  [[nodiscard]] SimTime now() const { return engine_.now(); }
  /// Merged view of per-shard counters. Call from driver code (between
  /// run()s), not from inside handlers running on worker threads.
  [[nodiscard]] const NetworkStats& stats() const;

  /// The underlying sharded runtime (shard/worker introspection).
  [[nodiscard]] runtime::Engine& engine() noexcept { return engine_; }
  [[nodiscard]] const runtime::Engine& engine() const noexcept {
    return engine_;
  }

  /// Registers an endpoint; replaces the handler if it already exists.
  void attach(const std::string& endpoint, Handler handler);

  /// Dense id for an endpoint name (registers it if new). Cache it to skip
  /// string hashing on the send hot path.
  EndpointId endpoint_id(const std::string& endpoint) {
    return engine_.endpoint(endpoint);
  }
  /// Dense id for a topic name (interns it if new).
  TopicId topic_id(const std::string& topic) { return topics_.intern(topic); }

  /// Configures the directed link from -> to (default link otherwise).
  void set_link(const std::string& from, const std::string& to,
                LinkConfig config);

  /// Default config for links without an explicit entry.
  void set_default_link(LinkConfig config);

  /// Interposes an adversary on the directed link from -> to.
  void set_adversary(const std::string& from, const std::string& to,
                     Adversary adversary);
  void clear_adversary(const std::string& from, const std::string& to);

  /// Cuts the (bidirectional) a <-> b link for absolute sim-time window
  /// [from, until): messages ENTERING either direction during the window
  /// are dropped (counted as messages_dropped_partition). Windows may
  /// overlap; each call adds one.
  void partition(const std::string& a, const std::string& b, SimTime from,
                 SimTime until);
  [[nodiscard]] bool partitioned(const std::string& a, const std::string& b,
                                 SimTime at) const;

  /// Marks `endpoint` down for absolute sim-time window [from, until):
  /// messages ARRIVING at a down endpoint are dropped (counted as
  /// messages_dropped_endpoint_down). `schedule` timers are unaffected —
  /// an outage loses traffic, not the simulation's clockwork.
  void set_endpoint_down(const std::string& endpoint, SimTime from,
                         SimTime until);
  [[nodiscard]] bool endpoint_down(const std::string& endpoint,
                                   SimTime at) const;

  /// Queues a message; throws NetError if `to` was never attached.
  /// Returns the envelope id (also when the message will later be dropped).
  /// Envelope ids are per-sender deterministic: (sender rank, counter).
  std::uint64_t send(const std::string& from, const std::string& to,
                     const std::string& topic, common::Payload payload);

  /// Hot-path overload: ids were interned up front, the payload is shared.
  std::uint64_t send(EndpointId from, EndpointId to, TopicId topic,
                     common::Payload payload);

  /// Schedules `callback` to fire at now() + delay. Inside a handler or
  /// timer the new timer binds to the executing endpoint's shard; from
  /// driver code it runs serially between rounds.
  void schedule(SimTime delay, TimerCallback callback);

  /// Schedules `callback` to fire at now() + delay in `endpoint`'s execution
  /// context — on its shard, with now()/sends/timers bound to it. This is
  /// how drivers inject per-endpoint work (e.g. a client submitting
  /// transactions) so it parallelizes across shards instead of executing
  /// serially between rounds like schedule(). Ordering is deterministic:
  /// same-time posts run in call order, independent of shard count.
  void post(const std::string& endpoint, SimTime delay,
            TimerCallback callback);

  /// Processes events until the queue is empty (or `max_events` is hit).
  /// Returns the number of events processed (exact in serial mode, checked
  /// at round boundaries when worker threads are enabled).
  std::size_t run(std::size_t max_events = 1 << 20);

  /// True if no events are pending.
  [[nodiscard]] bool idle() const { return engine_.idle(); }

 private:
  struct PartitionWindow {
    EndpointId a = 0;
    EndpointId b = 0;
    SimTime from = 0;
    SimTime until = 0;
  };

  /// Per-shard statistics bucket (+1 external bucket for driver context).
  /// Each bucket is only written by the thread executing that shard, then
  /// summed in stats() — order-independent, so merging is deterministic.
  struct StatsBucket {
    NetworkStats totals;                ///< by_topic left empty
    std::vector<TopicStats> by_topic;   ///< indexed by TopicId
  };

  static std::uint64_t link_key(EndpointId from, EndpointId to) noexcept {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  }
  [[nodiscard]] const LinkConfig& link_for(EndpointId from,
                                           EndpointId to) const;
  [[nodiscard]] bool partitioned_ids(EndpointId a, EndpointId b,
                                     SimTime at) const;
  [[nodiscard]] bool endpoint_down_id(EndpointId endpoint, SimTime at) const;
  /// Samples one delivery delay for `link` (jitter + spike + reorder extra)
  /// from `rng`; sets `reordered` when the reorder extra was applied.
  [[nodiscard]] static SimTime sample_delay(const LinkConfig& link,
                                            std::size_t payload_bytes,
                                            crypto::Drbg& rng,
                                            bool& reordered);
  TopicStats& topic_slot(StatsBucket& bucket, TopicId topic) const;
  StatsBucket& bucket();
  void deliver(EndpointId to, TopicId topic, Envelope env);
  void recompute_lookahead();

  runtime::Engine engine_;
  runtime::NameInterner topics_;
  LinkConfig default_link_;
  std::vector<Handler> handlers_;  ///< indexed by EndpointId
  std::unordered_map<std::uint64_t, LinkConfig> links_;
  std::unordered_map<std::uint64_t, Adversary> adversaries_;
  std::vector<PartitionWindow> partitions_;
  std::vector<std::vector<std::pair<SimTime, SimTime>>> down_windows_;
  std::vector<StatsBucket> stats_buckets_;  ///< shards + 1 external
  mutable NetworkStats merged_stats_;
};

}  // namespace tpnr::net
