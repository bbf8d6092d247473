#include "k8s/events.h"

#include <algorithm>
#include <tuple>

#include "obs/metrics.h"

namespace aladdin::k8s {

namespace {

// `keys` holds one batch's (object, queue index) pairs sorted by object,
// then index. Marks in `keep` the one survivor of each object's group:
// nothing when the group mixes adds and deletes, else its last add (the
// latest state) or its first delete.
template <typename Key, typename Same>
void MarkSurvivors(const std::vector<std::pair<Key, std::uint32_t>>& keys,
                   const std::vector<Event>& queue, EventType add_type,
                   Same same, std::vector<char>& keep) {
  for (std::size_t begin = 0; begin < keys.size();) {
    std::size_t end = begin + 1;
    while (end < keys.size() && same(keys[begin].first, keys[end].first)) {
      ++end;
    }
    std::size_t adds = 0;
    for (std::size_t i = begin; i < end; ++i) {
      if (queue[keys[i].second].type == add_type) ++adds;
    }
    if (adds == end - begin) {
      keep[keys[end - 1].second] = 1;
    } else if (adds == 0) {
      keep[keys[begin].second] = 1;
    }
    begin = end;
  }
}

}  // namespace

const char* EventTypeName(EventType type) {
  switch (type) {
    case EventType::kPodAdded:
      return "PodAdded";
    case EventType::kPodDeleted:
      return "PodDeleted";
    case EventType::kNodeAdded:
      return "NodeAdded";
    case EventType::kNodeRemoved:
      return "NodeRemoved";
  }
  return "?";
}

void EventsHandlingCenter::Subscribe(Handler handler) {
  handlers_.push_back(std::move(handler));
}

void EventsHandlingCenter::Submit(Event event) {
  queue_.push_back(std::move(event));
}

std::size_t EventsHandlingCenter::DrainAndDispatch() {
  // Coalescing pass (rules in events.h): group each object's events by
  // sorting (object, queue index) keys, keep at most one survivor per
  // group, then dispatch the survivors in queue order.
  const std::size_t n = queue_.size();
  pod_keys_.clear();
  node_keys_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const Event& e = queue_[i];
    const auto index = static_cast<std::uint32_t>(i);
    if (e.type == EventType::kPodAdded || e.type == EventType::kPodDeleted) {
      pod_keys_.emplace_back(e.pod.uid, index);
    } else {
      node_keys_.emplace_back(&e.node.name, index);
    }
  }
  std::sort(pod_keys_.begin(), pod_keys_.end());
  std::sort(node_keys_.begin(), node_keys_.end(),
            [](const auto& a, const auto& b) {
              return std::tie(*a.first, a.second) <
                     std::tie(*b.first, b.second);
            });
  keep_.assign(n, 0);
  MarkSurvivors(pod_keys_, queue_, EventType::kPodAdded,
                [](PodUid a, PodUid b) { return a == b; }, keep_);
  MarkSurvivors(node_keys_, queue_, EventType::kNodeAdded,
                [](const std::string* a, const std::string* b) {
                  return *a == *b;
                },
                keep_);

  std::size_t dispatched = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (keep_[i] == 0) continue;
    for (const Handler& handler : handlers_) handler(queue_[i]);
    ++dispatched;
  }
  dispatched_total_ += static_cast<std::int64_t>(dispatched);
  coalesced_total_ += static_cast<std::int64_t>(n - dispatched);
  ALADDIN_METRIC_ADD("k8s/events_dispatched", dispatched);
  ALADDIN_METRIC_ADD("k8s/events_coalesced", n - dispatched);
  queue_.clear();
  return dispatched;
}

}  // namespace aladdin::k8s
