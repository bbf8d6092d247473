#include "audit.h"

#include <map>
#include <string>
#include <utility>

#include "trace/workload.h"

namespace perfbench {

namespace cl = aladdin::cluster;
namespace k8s = aladdin::k8s;

namespace {

void CheckState(const cl::ClusterState& state, AuditResult& r) {
  const cl::AuditReport report = cl::Audit(state);
  r.violations = report.colocation_violations;
  r.machines_used = state.UsedMachineCount();
  if (report.colocation_violations != 0) {
    r.errors.push_back(std::to_string(report.colocation_violations) +
                       " colocation violations");
  }
  std::string why;
  if (!state.CheckConsistency(&why)) {
    r.errors.push_back("resource invariant broken: " + why);
  }
}

}  // namespace

AuditResult AuditLivePods(k8s::ClusterSimulator& sim, const PodBooks& books) {
  AuditResult r;
  k8s::ModelAdaptor& adaptor = sim.adaptor();
  if (sim.ehc().pending() != 0) {
    r.errors.push_back("events still queued at audit time");
  }

  // Live bound pods grouped by owner, in uid order.
  std::map<std::string, std::vector<const k8s::Pod*>> by_owner;
  for (const auto& [uid, pod] : adaptor.pods()) {
    if (pod.phase == k8s::PodPhase::kBound) {
      by_owner[pod.spec.app].push_back(&pod);
      ++r.bound;
    } else if (pod.phase == k8s::PodPhase::kPending) {
      ++r.pending;
    } else {
      r.errors.push_back("pod " + std::to_string(uid) + " in phase " +
                         k8s::PodPhaseName(pod.phase));
    }
  }

  // The workload of live pods only: one application per owner.
  aladdin::trace::Workload workload;
  std::map<std::string, cl::ApplicationId> app_of_owner;
  for (const auto& [owner, pods] : by_owner) {
    const k8s::PodSpec& spec = pods.front()->spec;
    for (const k8s::Pod* pod : pods) {
      if (!(pod->spec.requests == spec.requests)) {
        r.errors.push_back("owner " + owner + " has unequal pod requests");
        break;
      }
    }
    app_of_owner[owner] = workload.AddApplication(
        owner, pods.size(), spec.requests, spec.priority,
        spec.anti_affinity_within);
  }
  for (const auto& [owner, pods] : by_owner) {
    for (const std::string& other : pods.front()->spec.anti_affinity_apps) {
      const auto it = app_of_owner.find(other);
      if (it != app_of_owner.end()) {
        workload.AddAntiAffinity(app_of_owner[owner], it->second);
      }
    }
  }

  const cl::Topology& topology = adaptor.topology();
  cl::ClusterState state = workload.MakeState(topology);
  for (const auto& [owner, pods] : by_owner) {
    const cl::Application& app = workload.application(app_of_owner[owner]);
    for (std::size_t i = 0; i < pods.size(); ++i) {
      const cl::ContainerId c = app.containers[i];
      const cl::MachineId m = adaptor.MachineOf(pods[i]->node);
      if (!m.valid()) {
        r.errors.push_back("pod " + pods[i]->name + " bound to unknown node " +
                           pods[i]->node);
      } else if (!state.Fits(c, m)) {
        r.errors.push_back("node " + pods[i]->node + " over-committed by " +
                           pods[i]->name);
      } else {
        state.Deploy(c, m);
      }
    }
  }
  CheckState(state, r);

  // Pod books: every submitted pod is bound, pending or deleted.
  const std::int64_t deleted = books.deleted_by_client + sim.completed_tasks();
  const auto accounted =
      static_cast<std::int64_t>(r.bound + r.pending) + deleted;
  if (accounted != books.submitted) {
    r.errors.push_back(
        "pod books do not balance: submitted " +
        std::to_string(books.submitted) + " != bound " +
        std::to_string(r.bound) + " + pending " + std::to_string(r.pending) +
        " + deleted " + std::to_string(deleted));
  }
  const std::size_t snapshot = adaptor.workload().container_count();
  r.retired_containers =
      snapshot >= adaptor.pod_count() ? snapshot - adaptor.pod_count() : 0;
  return r;
}

AuditResult AuditState(const cl::ClusterState& state,
                       std::size_t unplaced_reported) {
  AuditResult r;
  r.bound = state.placed_count();
  r.pending = unplaced_reported;
  if (r.bound + r.pending != state.containers().size()) {
    r.errors.push_back("placed " + std::to_string(r.bound) + " + unplaced " +
                       std::to_string(r.pending) + " != containers " +
                       std::to_string(state.containers().size()));
  }
  CheckState(state, r);
  return r;
}

}  // namespace perfbench
