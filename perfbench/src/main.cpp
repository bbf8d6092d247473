// perfbench: runs one workload of the repo benchmark and prints its result.
//
//   perfbench --workload online_churn --seed 7 --seconds 50 --trace 0
//             [--smoke] [--revision REV]
//
// stdout: a table of the run's metrics, a `provenance {...}` line, and as
// the last line one JSON object {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer ones. Exit code 0 only when the run completed (an incorrect
// run still exits 0 and reports "correct": false); 2 on bad flags.
#include <cstdio>
#include <string>

#include "common/flags.h"
#include "probes.h"
#include "workloads.h"

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  aladdin::Flags flags;
  auto& workload = flags.String("workload", "", "workload name");
  auto& seed = flags.Int64("seed", 1, "input seed");
  auto& seconds = flags.Double("seconds", 50.0,
                               "ceiling on the measured window, seconds");
  auto& trace = flags.Int64("trace", 0, "1 = traced run, per-layer metrics");
  auto& smoke = flags.Bool("smoke", false, "seconds-long configuration");
  auto& revision = flags.String("revision", "unknown",
                                "git commit or source digest");
  if (!flags.Parse(argc, argv)) return 2;
  if (!perfbench::IsWorkload(workload)) {
    std::fprintf(stderr, "unknown --workload '%s' (", workload.c_str());
    for (const auto& name : perfbench::WorkloadNames()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, " )\n");
    return 2;
  }
  if (seed < 0 || seconds <= 0.0 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr, "bad --seed, --seconds or --trace\n");
    return 2;
  }

  perfbench::RunOptions options;
  options.workload = workload;
  options.seed = static_cast<std::uint64_t>(seed);
  options.seconds = seconds;
  options.trace = trace == 1;
  options.smoke = smoke;

  const perfbench::CpuJiffies jiffies_before = perfbench::ReadCpuJiffies();
  const perfbench::RunReport report = perfbench::RunWorkload(options);
  const double steal_pct =
      perfbench::StealPct(jiffies_before, perfbench::ReadCpuJiffies());

  std::printf("%-28s %16s  %s\n", "metric", "value", "unit");
  for (const auto& m : report.metrics) {
    std::printf("%-28s %16.6g  %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const auto& error : report.audit.errors) {
    std::printf("AUDIT FAILED: %s\n", error.c_str());
  }

  const perfbench::Provenance p = perfbench::BuildAndHost();
  if (p.dchecks) {
    std::printf("WARNING: DCHECKs are armed in this build; its times are "
                "not comparable with a Release benchmark build\n");
  }
  std::string prov = "{";
  prov += "\"workload\": " + JsonString(workload);
  prov += ", \"seed\": " + std::to_string(seed);
  prov += ", \"traced\": " + std::string(options.trace ? "true" : "false");
  prov += ", \"build_type\": " + JsonString(p.build_type);
  prov += ", \"dchecks\": " + std::string(p.dchecks ? "true" : "false");
  prov += ", \"obs_compiled\": " +
          std::string(p.obs_compiled ? "true" : "false");
  prov += ", \"compiler\": " + JsonString(p.compiler);
  prov += ", \"cpu_model\": " + JsonString(p.cpu_model);
  prov += ", \"nproc\": " + std::to_string(p.nproc);
  prov += ", \"revision\": " + JsonString(revision);
  prov += ", \"steal_pct\": " + JsonNumber(steal_pct);
  for (const auto& [key, value] : report.facts) {
    prov += ", " + JsonString(key) + ": " + JsonString(value);
  }
  prov += "}";
  std::printf("provenance %s\n", prov.c_str());

  std::string out = "{\"correct\": ";
  out += report.failed == 0 && report.audit.ok() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& m = report.metrics[i];
    if (i > 0) out += ", ";
    out += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
