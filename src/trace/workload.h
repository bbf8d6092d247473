// A scheduling workload: the application/container tables plus the
// constraint set. Owns the storage that ClusterState and the schedulers
// reference.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/application.h"
#include "cluster/constraints.h"
#include "cluster/state.h"
#include "cluster/topology.h"

namespace aladdin::trace {

class Workload {
 public:
  Workload() = default;
  // Copies are distinct workloads (fresh instance_id()); a move hands the
  // identity to the target and gives the source a fresh one.
  Workload(const Workload& other);
  Workload& operator=(const Workload& other);
  Workload(Workload&& other) noexcept;
  Workload& operator=(Workload&& other) noexcept;

  // Process-unique identity. Tables only grow while it holds (ids are
  // append-only), so a consumer that caches per-container work keys it on
  // (instance_id(), container_count()): a different workload — even one
  // built at a recycled address — never reuses another's cache.
  [[nodiscard]] std::uint64_t instance_id() const { return instance_id_; }

  // Adds an application with `count` isomorphic containers. Returns its id.
  cluster::ApplicationId AddApplication(std::string name, std::size_t count,
                                        cluster::ResourceVector request,
                                        cluster::Priority priority = 0,
                                        bool anti_affinity_within = false);

  // Appends one more isomorphic container to an existing application
  // (incremental workload growth: pods of a known owner arriving later).
  // Containers are append-only — ids already handed out never move.
  cluster::ContainerId AddContainer(cluster::ApplicationId app);

  // Cross-application anti-affinity rule (a == b for within; usually set via
  // AddApplication's flag instead).
  void AddAntiAffinity(cluster::ApplicationId a, cluster::ApplicationId b);

  [[nodiscard]] const std::vector<cluster::Application>& applications() const {
    return applications_;
  }
  [[nodiscard]] const std::vector<cluster::Container>& containers() const {
    return containers_;
  }
  [[nodiscard]] const cluster::ConstraintSet& constraints() const {
    return constraints_;
  }

  [[nodiscard]] const cluster::Application& application(
      cluster::ApplicationId a) const {
    return applications_[static_cast<std::size_t>(a.value())];
  }
  [[nodiscard]] const cluster::Container& container(
      cluster::ContainerId c) const {
    return containers_[static_cast<std::size_t>(c.value())];
  }

  [[nodiscard]] std::size_t application_count() const {
    return applications_.size();
  }
  [[nodiscard]] std::size_t container_count() const {
    return containers_.size();
  }

  // Sum of all container requests.
  [[nodiscard]] cluster::ResourceVector TotalDemand() const;

  // Fresh empty cluster state bound to this workload's tables.
  [[nodiscard]] cluster::ClusterState MakeState(
      const cluster::Topology& topology) const;

  // Drops the memory dimension of every request (the evaluation's CPU-only
  // mode for a fair comparison with Firmament, §V.A). Takes a fresh
  // instance_id(): the tables changed other than by growth.
  void ProjectCpuOnly();

 private:
  static std::uint64_t NextInstanceId();

  std::vector<cluster::Application> applications_;
  std::vector<cluster::Container> containers_;
  cluster::ConstraintSet constraints_;
  std::uint64_t instance_id_ = NextInstanceId();
};

}  // namespace aladdin::trace
