// End-of-run audit, independent of the resolver's own bookkeeping.
//
// For the online workloads it rebuilds a ClusterState from the *live* bound
// pods alone — one application per owner, built here from the pod specs,
// never from the adaptor's snapshot with its tombstoned containers — then
// runs cluster::Audit and VerifyResourceInvariant on it and balances the
// pod books: submitted = bound + pending + deleted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/audit.h"
#include "cluster/state.h"
#include "k8s/simulator.h"

namespace perfbench {

struct AuditResult {
  std::size_t bound = 0;
  std::size_t pending = 0;
  std::size_t violations = 0;       // colocation violations among placed
  std::size_t machines_used = 0;
  std::size_t retired_containers = 0;  // adaptor tombstones, not unplaced
  std::vector<std::string> errors;     // empty = the audit passed

  [[nodiscard]] bool ok() const { return errors.empty(); }
};

// What the load client submitted and deleted itself; the simulator adds batch
// completions on its own.
struct PodBooks {
  std::int64_t submitted = 0;
  std::int64_t deleted_by_client = 0;
};

// Audit of a ClusterSimulator after its last tick (no events queued).
AuditResult AuditLivePods(aladdin::k8s::ClusterSimulator& sim,
                          const PodBooks& books);

// Audit of a one-shot solve: `placed` + `unplaced` must cover every
// container, and the state must pass Audit and the resource invariant.
AuditResult AuditState(const aladdin::cluster::ClusterState& state,
                       std::size_t unplaced_reported);

}  // namespace perfbench
