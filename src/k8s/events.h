// Events Handling Center (EHC) — §IV.C, Fig. 6: "EHC receives all kinds of
// changes in the LLAs' life-cycles and resources. Then, it forwards
// pre-processed events to [the model adaptor]".
//
// Pre-processing here means coalescing, per object (pod uid or node name)
// over one drained batch:
//   * adds and deletes of one object in the same batch cancel out — every
//     event of that object is dropped;
//   * several adds collapse to the last one (the latest state wins);
//   * several deletes collapse to the first one.
// Dispatch order is stable (FIFO over surviving events). Subscribers see a
// clean, minimal stream.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "k8s/objects.h"

namespace aladdin::k8s {

enum class EventType {  // analyze:closed_enum
  kPodAdded,
  kPodDeleted,     // user/controller deletion or completion
  kNodeAdded,
  kNodeRemoved,
};

const char* EventTypeName(EventType type);

struct Event {
  EventType type;
  // One of the two payloads is meaningful depending on the type.
  Pod pod;
  Node node;
};

class EventsHandlingCenter {
 public:
  using Handler = std::function<void(const Event&)>;

  // Subscribers are invoked in registration order on every dispatched
  // event (the model adaptor is the primary subscriber).
  void Subscribe(Handler handler);

  // Queue an event; no dispatch happens until DrainAndDispatch.
  void Submit(Event event);

  // Coalesce the queue, dispatch surviving events to subscribers, and
  // return how many were dispatched. O(queued · log queued): coalescing
  // sorts the batch by object, no hashing. Handlers must not Submit.
  std::size_t DrainAndDispatch();

  [[nodiscard]] std::size_t pending() const { return queue_.size(); }
  [[nodiscard]] std::int64_t dispatched_total() const {
    return dispatched_total_;
  }
  [[nodiscard]] std::int64_t coalesced_total() const {
    return coalesced_total_;
  }

 private:
  std::vector<Event> queue_;
  std::vector<Handler> handlers_;
  // Drain scratch, capacity kept across ticks: (object, queue index) keys
  // sorted to group each object's events, and the survivor mask.
  std::vector<std::pair<PodUid, std::uint32_t>> pod_keys_;
  std::vector<std::pair<const std::string*, std::uint32_t>> node_keys_;
  std::vector<char> keep_;
  std::int64_t dispatched_total_ = 0;
  std::int64_t coalesced_total_ = 0;
};

}  // namespace aladdin::k8s
