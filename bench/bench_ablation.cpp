// Ablation bench for the design choices DESIGN.md calls out (not a paper
// figure, but §IV.A's claims made measurable):
//   1. IL / DL search-space reduction — explored paths, prunes and wall
//      time for the three policies (the mechanism behind Fig. 12's 50 %);
//   2. the Eq. 4–5 weight rule — weight bases vs derived minimal weights,
//      verifying Eq. 5 satisfaction and identical outcomes;
//   3. repair and compaction — what migration/preemption and the
//      compaction pass each contribute to placement quality and machines.
#include <cstdio>

#include "common/flags.h"
#include "obs/cli.h"
#include "common/table.h"
#include "core/scheduler.h"
#include "core/relaxation.h"
#include "core/weights.h"
#include "sim/experiment.h"
#include "trace/alibaba_gen.h"
#include "sim/report.h"

using namespace aladdin;

int main(int argc, char** argv) {
  Flags flags;
  auto& scale = flags.Double("scale", 0.04, "workload scale (1.0 = paper)");
  auto& seed = flags.Int64("seed", 42, "trace seed");
  aladdin::obs::ObsCli obs_cli(flags);
  if (!flags.Parse(argc, argv)) return 1;
  if (!obs_cli.Apply()) return 1;

  const trace::Workload workload =
      sim::MakeBenchWorkload(scale, static_cast<std::uint64_t>(seed));
  sim::ExperimentConfig config;
  config.machines = sim::BenchMachineCount(scale);
  config.order = trace::ArrivalOrder::kRandom;

  // --- 1. IL / DL search-space reduction. --------------------------------
  sim::PrintExperimentHeader("Ablation 1",
                             "IL/DL search-space reduction (§IV.A)");
  Table search({"policy", "explored paths", "IL prunes", "DL stops",
                "runtime ms", "unplaced", "machines"});
  struct Policy {
    const char* name;
    bool il, dl;
  };
  for (const Policy& p : {Policy{"Aladdin (plain)", false, false},
                          Policy{"Aladdin+IL", true, false},
                          Policy{"Aladdin+IL+DL", true, true}}) {
    core::AladdinOptions options;
    options.enable_il = p.il;
    options.enable_dl = p.dl;
    core::AladdinScheduler scheduler(options);
    const sim::RunMetrics m = sim::RunExperiment(scheduler, workload, config);
    search.Cell(p.name)
        .Cell(m.outcome.explored_paths)
        .Cell(m.outcome.il_prunes)
        .Cell(m.outcome.dl_stops)
        .Cell(m.wall_seconds * 1e3, 1)
        .Cell(static_cast<std::int64_t>(m.audit.unplaced))
        .Cell(static_cast<std::int64_t>(m.used_machines))
        .EndRow();
  }
  search.Print();
  std::printf("expectation: identical unplaced/machines across policies; "
              "explored paths and runtime fall sharply with IL and DL.\n");

  // --- 2. Weight rule (Eq. 4–5). ------------------------------------------
  sim::PrintExperimentHeader("Ablation 2", "priority weight rule (Eq. 4-5)");
  const core::PriorityWeights minimal =
      core::ComputeMinimalWeights(workload);
  Table weights({"weights", "w per class", "satisfies Eq.5", "violations%",
                 "machines"});
  auto weight_row = [&](const std::string& label,
                        const core::PriorityWeights& w,
                        std::int64_t base_for_scheduler) {
    core::AladdinOptions options;
    options.weight_base = base_for_scheduler;
    core::AladdinScheduler scheduler(options);
    const sim::RunMetrics m = sim::RunExperiment(scheduler, workload, config);
    std::string per_class;
    for (std::size_t k = 0; k < w.weight.size(); ++k) {
      if (k > 0) per_class += "/";
      per_class += std::to_string(w.weight[k]);
    }
    weights.Cell(label)
        .Cell(per_class)
        .Cell(core::SatisfiesEq5(w, workload) ? "yes" : "NO")
        .Cell(m.audit.ViolationPercent(), 2)
        .Cell(static_cast<std::int64_t>(m.used_machines))
        .EndRow();
  };
  weight_row("derived minimal", minimal, 0);
  for (std::int64_t base : {16, 32, 64, 128}) {
    weight_row("geometric base " + std::to_string(base),
               core::MakeGeometricWeights(cluster::kPriorityClasses, base),
               base);
  }
  weights.Print();
  std::printf("expectation: every base in the paper's sweep satisfies Eq. 5 "
              "and yields the same (zero-violation) outcome.\n");

  // --- 3. Repair / compaction contribution. -------------------------------
  // Run on a deliberately tight cluster (82 % of the normal machine count)
  // so the augmentation pass alone cannot place everything and the repair
  // mechanisms have real work to do.
  sim::PrintExperimentHeader("Ablation 3",
                             "migration/preemption repair and compaction "
                             "(tight cluster: 82% of machines)");
  sim::ExperimentConfig tight = config;
  tight.machines = config.machines * 82 / 100;
  Table repair({"configuration", "unplaced", "machines", "migrations",
                "preemptions"});
  struct Variant {
    const char* name;
    bool repair, compaction;
  };
  for (const Variant& v :
       {Variant{"no repair, no compaction", false, false},
        Variant{"repair only", true, false},
        Variant{"repair + compaction (full)", true, true}}) {
    core::AladdinOptions options;
    options.enable_repair = v.repair;
    options.enable_compaction = v.compaction;
    core::AladdinScheduler scheduler(options);
    const sim::RunMetrics m = sim::RunExperiment(scheduler, workload, tight);
    repair.Cell(v.name)
        .Cell(static_cast<std::int64_t>(m.audit.unplaced))
        .Cell(static_cast<std::int64_t>(m.used_machines))
        .Cell(m.migrations)
        .Cell(m.preemptions)
        .EndRow();
  }
  repair.Print();
  std::printf("expectation: repair eliminates the stranded containers the "
              "pure augmentation pass leaves; compaction trims machines at "
              "a bounded migration cost (Fig. 7 / Fig. 13b).\n");

  // --- 4. Max-flow relaxation bound (Fig. 4 network, solved exactly). -----
  sim::PrintExperimentHeader(
      "Ablation 4", "linear max-flow relaxation of the Fig. 4 network vs "
                    "Algorithm 1's integral, constraint-respecting result");
  {
    const cluster::Topology topo = trace::MakeAlibabaCluster(config.machines);
    const auto empty_state = workload.MakeState(topo);
    const core::RelaxationBound bound =
        core::SolveRelaxation(workload, empty_state);
    const core::RelaxationNetwork net =
        core::BuildRelaxationNetwork(workload, empty_state);
    core::AladdinScheduler scheduler;
    const sim::RunMetrics m = sim::RunExperiment(scheduler, workload, config);
    // With zero unplaced containers, Aladdin's placed CPU is the demand.
    std::int64_t placed_cpu = 0;
    for (const auto& c : workload.containers()) {
      placed_cpu += c.request.cpu_millis();
    }
    Table table({"quantity", "CPU cores"});
    table.Cell("total demand").Cell(bound.demand_cpu_millis / 1000).EndRow();
    table.Cell("relaxation bound (no anti-affinity, divisible)")
        .Cell(bound.placeable_cpu_millis / 1000)
        .EndRow();
    table.Cell("Aladdin placed (integral, all constraints)")
        .Cell(m.audit.unplaced == 0 ? placed_cpu / 1000 : -1)
        .EndRow();
    table.Print();
    std::printf("network size: %zu vertices, %zu edges (the naive "
                "container-x-machine graph would need %zu edges).\n",
                net.graph.vertex_count(), net.edge_count,
                workload.container_count() * config.machines);
  }
  if (!obs_cli.Finish()) return 1;
  return 0;
}
