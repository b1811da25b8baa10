#include "net/network.h"

#include <algorithm>

namespace tpnr::net {

Network::Network(std::uint64_t seed, NetworkOptions options)
    : engine_(seed, options) {
  stats_buckets_.resize(engine_.shard_count() + 1);
  recompute_lookahead();
}

void Network::attach(const std::string& endpoint, Handler handler) {
  const EndpointId id = engine_.endpoint(endpoint);
  if (handlers_.size() <= id) handlers_.resize(id + 1);
  handlers_[id] = std::move(handler);
}

void Network::set_link(const std::string& from, const std::string& to,
                       LinkConfig config) {
  links_[link_key(engine_.endpoint(from), engine_.endpoint(to))] = config;
  recompute_lookahead();
}

void Network::set_default_link(LinkConfig config) {
  default_link_ = config;
  recompute_lookahead();
}

void Network::recompute_lookahead() {
  // The engine may run shards in parallel over windows of this width: it
  // must be a lower bound on every cross-endpoint delivery delay. Latency
  // is the floor of sample_delay (jitter/bandwidth/spike/reorder only add),
  // and deliveries are clamped to >= 1us in send().
  SimTime min_latency = default_link_.latency;
  for (const auto& [key, link] : links_) {
    min_latency = std::min(min_latency, link.latency);
  }
  engine_.set_lookahead(std::max<SimTime>(1, min_latency));
}

void Network::set_adversary(const std::string& from, const std::string& to,
                            Adversary adversary) {
  adversaries_[link_key(engine_.endpoint(from), engine_.endpoint(to))] =
      std::move(adversary);
}

void Network::clear_adversary(const std::string& from, const std::string& to) {
  adversaries_.erase(link_key(engine_.endpoint(from), engine_.endpoint(to)));
}

void Network::partition(const std::string& a, const std::string& b,
                        SimTime from, SimTime until) {
  partitions_.push_back(
      {engine_.endpoint(a), engine_.endpoint(b), from, until});
}

bool Network::partitioned_ids(EndpointId a, EndpointId b, SimTime at) const {
  for (const PartitionWindow& w : partitions_) {
    const bool matches = (w.a == a && w.b == b) || (w.a == b && w.b == a);
    if (matches && at >= w.from && at < w.until) return true;
  }
  return false;
}

bool Network::partitioned(const std::string& a, const std::string& b,
                          SimTime at) const {
  // Names never seen by the network cannot be partitioned.
  Network* self = const_cast<Network*>(this);
  return partitioned_ids(self->engine_.endpoint(a), self->engine_.endpoint(b),
                         at);
}

void Network::set_endpoint_down(const std::string& endpoint, SimTime from,
                                SimTime until) {
  const EndpointId id = engine_.endpoint(endpoint);
  if (down_windows_.size() <= id) down_windows_.resize(id + 1);
  down_windows_[id].emplace_back(from, until);
}

bool Network::endpoint_down_id(EndpointId endpoint, SimTime at) const {
  if (endpoint >= down_windows_.size()) return false;
  for (const auto& [from, until] : down_windows_[endpoint]) {
    if (at >= from && at < until) return true;
  }
  return false;
}

const LinkConfig& Network::link_for(EndpointId from, EndpointId to) const {
  const auto it = links_.find(link_key(from, to));
  return it == links_.end() ? default_link_ : it->second;
}

SimTime Network::sample_delay(const LinkConfig& link,
                              std::size_t payload_bytes, crypto::Drbg& rng,
                              bool& reordered) {
  SimTime delay = link.latency;
  if (link.jitter > 0) {
    delay += static_cast<SimTime>(
        rng.uniform(static_cast<std::uint64_t>(link.jitter) + 1));
  }
  if (link.bandwidth_bytes_per_sec > 0) {
    delay += static_cast<SimTime>(payload_bytes) * common::kSecond /
             static_cast<SimTime>(link.bandwidth_bytes_per_sec);
  }
  if (link.delay_spike_probability > 0.0 &&
      rng.chance(link.delay_spike_probability)) {
    delay += link.delay_spike;
  }
  reordered = false;
  if (link.reorder_probability > 0.0 && link.reorder_window > 0 &&
      rng.chance(link.reorder_probability)) {
    delay += 1 + static_cast<SimTime>(rng.uniform(
                     static_cast<std::uint64_t>(link.reorder_window)));
    reordered = true;
  }
  return delay;
}

TopicStats& Network::topic_slot(StatsBucket& bucket, TopicId topic) const {
  if (bucket.by_topic.size() <= topic) bucket.by_topic.resize(topic + 1);
  return bucket.by_topic[topic];
}

Network::StatsBucket& Network::bucket() {
  return stats_buckets_[engine_.current_bucket()];
}

std::uint64_t Network::send(const std::string& from, const std::string& to,
                            const std::string& topic,
                            common::Payload payload) {
  const auto to_id = engine_.endpoint(to);
  return send(engine_.endpoint(from), to_id, topics_.intern(topic),
              std::move(payload));
}

std::uint64_t Network::send(EndpointId from, EndpointId to, TopicId topic,
                            common::Payload payload) {
  if (to >= handlers_.size() || !handlers_[to]) {
    throw common::NetError("Network::send: unknown endpoint '" +
                           engine_.endpoint_name(to) + "'");
  }
  Envelope env;
  // Per-sender id: (sender rank, per-sender counter) — deterministic for
  // any shard/worker count, unlike a globally ordered counter.
  env.id = ((static_cast<std::uint64_t>(from) + 1) << 32) |
           engine_.next_counter(from);
  env.from = engine_.endpoint_name(from);
  env.to = engine_.endpoint_name(to);
  env.topic = topics_.name(topic);
  env.payload = std::move(payload);
  env.sent_at = engine_.now();

  StatsBucket& bkt = bucket();
  ++bkt.totals.messages_sent;
  bkt.totals.bytes_sent += env.payload.size();
  TopicStats& topic_stats = topic_slot(bkt, topic);
  ++topic_stats.messages_sent;
  topic_stats.bytes_sent += env.payload.size();

  // Adversary sees the message before channel effects.
  if (!adversaries_.empty()) {
    if (const auto adv = adversaries_.find(link_key(from, to));
        adv != adversaries_.end()) {
      AdversaryAction action = adv->second(env);
      switch (action.kind) {
        case AdversaryAction::Kind::kDrop:
          ++bkt.totals.messages_dropped_adversary;
          ++topic_stats.messages_dropped_adversary;
          return env.id;
        case AdversaryAction::Kind::kModify:
          env.payload = common::Payload(std::move(action.modified_payload));
          ++bkt.totals.messages_modified;
          break;
        case AdversaryAction::Kind::kPass:
          break;
      }
    }
  }

  // A cut link swallows anything entering it during the window.
  if (!partitions_.empty() && partitioned_ids(from, to, env.sent_at)) {
    ++bkt.totals.messages_dropped_partition;
    ++topic_stats.messages_dropped_partition;
    return env.id;
  }

  const LinkConfig& link = link_for(from, to);
  crypto::Drbg& rng = engine_.rng(from);
  if (link.loss_probability > 0.0 && rng.chance(link.loss_probability)) {
    ++bkt.totals.messages_dropped_loss;
    ++topic_stats.messages_dropped_loss;
    return env.id;
  }

  bool reordered = false;
  SimTime delay = sample_delay(link, env.payload.size(), rng, reordered);
  if (reordered) {
    ++bkt.totals.messages_reordered;
    ++topic_stats.messages_reordered;
  }
  if (delay < 1) delay = 1;  // lookahead floor: no zero-delay deliveries
  const std::uint64_t id = env.id;

  // Duplication: a second, independently delayed copy of the same envelope
  // (same id — the duplicate is indistinguishable on the wire). Copying the
  // envelope shares the payload buffer; no bytes are copied.
  if (link.duplicate_probability > 0.0 &&
      rng.chance(link.duplicate_probability)) {
    ++bkt.totals.messages_duplicated;
    ++topic_stats.messages_duplicated;
    bool copy_reordered = false;
    SimTime copy_delay =
        sample_delay(link, env.payload.size(), rng, copy_reordered);
    if (copy_reordered) {
      ++bkt.totals.messages_reordered;
      ++topic_stats.messages_reordered;
    }
    if (copy_delay < 1) copy_delay = 1;
    Envelope copy = env;
    copy.delivered_at = env.sent_at + copy_delay;
    engine_.post(to, from, copy.delivered_at,
                 [this, to, topic, e = std::move(copy)]() mutable {
                   deliver(to, topic, std::move(e));
                 });
  }
  env.delivered_at = env.sent_at + delay;
  engine_.post(to, from, env.delivered_at,
               [this, to, topic, e = std::move(env)]() mutable {
                 deliver(to, topic, std::move(e));
               });
  return id;
}

void Network::deliver(EndpointId to, TopicId topic, Envelope env) {
  StatsBucket& bkt = bucket();
  if (endpoint_down_id(to, env.delivered_at)) {
    // The host is down when the message arrives: lost, like a connection
    // refused. Timers keep firing — only traffic dies.
    ++bkt.totals.messages_dropped_endpoint_down;
    ++topic_slot(bkt, topic).messages_dropped_endpoint_down;
    return;
  }
  const Handler& handler = handlers_[to];
  if (!handler) return;
  ++bkt.totals.messages_delivered;
  bkt.totals.bytes_delivered += env.payload.size();
  TopicStats& topic_stats = topic_slot(bkt, topic);
  ++topic_stats.messages_delivered;
  topic_stats.bytes_delivered += env.payload.size();
  handler(env);
}

void Network::schedule(SimTime delay, TimerCallback callback) {
  engine_.post_timer(delay, std::move(callback));
}

void Network::post(const std::string& endpoint, SimTime delay,
                   TimerCallback callback) {
  if (delay < 0) delay = 0;
  const EndpointId id = engine_.endpoint(endpoint);
  engine_.post(id, runtime::kNoEndpoint, engine_.now() + delay,
               std::move(callback));
}

std::size_t Network::run(std::size_t max_events) {
  return engine_.run(max_events);
}

const NetworkStats& Network::stats() const {
  // Per-shard buckets are summed into one view; summation is commutative,
  // so the merge is deterministic regardless of which thread ran what.
  merged_stats_ = NetworkStats{};
  for (const StatsBucket& bkt : stats_buckets_) {
    const NetworkStats& t = bkt.totals;
    merged_stats_.messages_sent += t.messages_sent;
    merged_stats_.messages_delivered += t.messages_delivered;
    merged_stats_.messages_dropped_loss += t.messages_dropped_loss;
    merged_stats_.messages_dropped_adversary += t.messages_dropped_adversary;
    merged_stats_.messages_dropped_partition += t.messages_dropped_partition;
    merged_stats_.messages_dropped_endpoint_down +=
        t.messages_dropped_endpoint_down;
    merged_stats_.messages_duplicated += t.messages_duplicated;
    merged_stats_.messages_reordered += t.messages_reordered;
    merged_stats_.messages_modified += t.messages_modified;
    merged_stats_.bytes_sent += t.bytes_sent;
    merged_stats_.bytes_delivered += t.bytes_delivered;
  }
  const std::size_t topic_count = topics_.size();
  for (TopicId id = 0; id < topic_count; ++id) {
    TopicStats sum;
    for (const StatsBucket& bkt : stats_buckets_) {
      if (bkt.by_topic.size() <= id) continue;
      const TopicStats& t = bkt.by_topic[id];
      sum.messages_sent += t.messages_sent;
      sum.bytes_sent += t.bytes_sent;
      sum.messages_delivered += t.messages_delivered;
      sum.bytes_delivered += t.bytes_delivered;
      sum.messages_duplicated += t.messages_duplicated;
      sum.messages_reordered += t.messages_reordered;
      sum.messages_dropped_loss += t.messages_dropped_loss;
      sum.messages_dropped_adversary += t.messages_dropped_adversary;
      sum.messages_dropped_partition += t.messages_dropped_partition;
      sum.messages_dropped_endpoint_down += t.messages_dropped_endpoint_down;
    }
    const bool touched =
        sum.messages_sent || sum.messages_delivered ||
        sum.messages_duplicated || sum.messages_reordered ||
        sum.messages_dropped_loss || sum.messages_dropped_adversary ||
        sum.messages_dropped_partition || sum.messages_dropped_endpoint_down;
    if (touched) merged_stats_.by_topic[topics_.name(id)] = sum;
  }
  return merged_stats_;
}

}  // namespace tpnr::net
