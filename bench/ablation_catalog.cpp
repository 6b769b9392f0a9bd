// Catalog sweep: one policy-stack comparison across the whole scenario
// catalog (docs/SCENARIOS.md).  Every named scenario runs twice -- once
// under the modern stack (queue-depth broker + placement leases + health
// breakers) and once under the legacy stack (the paper's favorite-sites
// status quo) -- and each run prints one `result-json:` line with its
// counters and determinism digest.
//
// `--manifest PATH` additionally writes the digests as a JSON manifest;
// the committed bench/CATALOG_MANIFEST.json records the quick-mode
// digests per (scenario, stack) for the default seed, and
// scripts/check_bench.py --check-catalog regenerates and compares them
// in CI -- any nondeterminism or accidental behavior change in the
// generator, calendar, or placement stack shows up as a digest diff.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "util/table.h"
#include "workload/catalog.h"

namespace {

using namespace grid3;

void print_result_json(const workload::RunResult& r) {
  std::printf(
      "result-json: {\"scenario\": \"%s\", \"stack\": \"%s\", "
      "\"jobs\": %zu, \"completed\": %zu, \"failed\": %zu, "
      "\"workflows\": %llu, \"downtimes\": %zu, \"wan_events\": %zu, "
      "\"events\": %llu, \"wall_seconds\": %.2f, \"digest\": \"%s\"}\n",
      r.scenario.c_str(), r.stack.c_str(), r.jobs, r.completed, r.failed,
      static_cast<unsigned long long>(r.workflows), r.downtimes,
      r.wan_events, static_cast<unsigned long long>(r.events),
      r.wall_seconds, r.digest.c_str());
}

int write_manifest(const char* path,
                   const std::vector<workload::RunResult>& results) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "ablation_catalog: cannot write %s\n", path);
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"schema\": \"grid3-catalog-manifest-v1\",\n"
               "  \"seed\": %llu,\n"
               "  \"quick\": %s,\n"
               "  \"entries\": [\n",
               static_cast<unsigned long long>(bench::seed()),
               bench::quick() ? "true" : "false");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const workload::RunResult& r = results[i];
    std::fprintf(out,
                 "    {\"scenario\": \"%s\", \"stack\": \"%s\", "
                 "\"digest\": \"%s\", \"jobs\": %zu}%s\n",
                 r.scenario.c_str(), r.stack.c_str(), r.digest.c_str(),
                 r.jobs, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("catalog manifest -> %s\n", path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* manifest_path = nullptr;
  const char* only = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--manifest") == 0 && i + 1 < argc) {
      manifest_path = argv[i + 1];
    } else if (std::strcmp(argv[i], "--only") == 0 && i + 1 < argc) {
      only = argv[i + 1];
    }
  }
  bench::header("Catalog sweep: modern vs legacy stack, every scenario",
                "sections 4/6 workloads as a reusable scenario catalog");

  const workload::StackConfig stacks[] = {workload::modern_stack(),
                                          workload::legacy_stack()};
  std::vector<workload::RunResult> results;
  bool all_ran = true;
  for (const std::string& name : workload::ScenarioCatalog::names()) {
    if (only != nullptr && name != only) continue;
    const workload::ScenarioSpec spec =
        workload::ScenarioCatalog::get(name, bench::seed());
    for (const workload::StackConfig& stack : stacks) {
      std::cout << "[" << name << " / " << stack.name << "] running ... "
                << std::flush;
      const workload::RunResult r =
          workload::run_scenario(spec, bench::quick(), stack);
      std::cout << "done (" << r.jobs << " jobs, "
                << util::AsciiTable::num(r.wall_seconds, 1) << "s wall)\n";
      if (r.jobs == 0) all_ran = false;
      // Campaign scenarios must actually launch workflows; historical
      // scenarios drive their own apps and report workflows = 0.
      if (!spec.campaigns.empty() && r.workflows == 0) all_ran = false;
      results.push_back(r);
    }
  }

  using util::AsciiTable;
  AsciiTable table{{"scenario", "stack", "jobs", "completion", "workflows",
                    "downtimes", "wan", "digest"}};
  for (const workload::RunResult& r : results) {
    const double completion =
        r.jobs > 0
            ? static_cast<double>(r.completed) / static_cast<double>(r.jobs)
            : 0.0;
    table.add_row({r.scenario, r.stack,
                   AsciiTable::integer(static_cast<long>(r.jobs)),
                   AsciiTable::percent(completion),
                   AsciiTable::integer(static_cast<long>(r.workflows)),
                   AsciiTable::integer(static_cast<long>(r.downtimes)),
                   AsciiTable::integer(static_cast<long>(r.wan_events)),
                   r.digest});
  }
  std::cout << '\n';
  table.print(std::cout);

  // Aggregate stack comparison across the catalog (the headline the
  // per-scenario JSON lines back up).
  std::size_t modern_ok = 0, modern_jobs = 0, legacy_ok = 0, legacy_jobs = 0;
  for (const workload::RunResult& r : results) {
    if (r.stack == "modern") {
      modern_ok += r.completed;
      modern_jobs += r.jobs;
    } else {
      legacy_ok += r.completed;
      legacy_jobs += r.jobs;
    }
  }
  const double modern_rate =
      modern_jobs > 0 ? static_cast<double>(modern_ok) /
                            static_cast<double>(modern_jobs)
                      : 0.0;
  const double legacy_rate =
      legacy_jobs > 0 ? static_cast<double>(legacy_ok) /
                            static_cast<double>(legacy_jobs)
                      : 0.0;
  std::cout << "\ncatalog completion: modern "
            << AsciiTable::percent(modern_rate) << " vs legacy "
            << AsciiTable::percent(legacy_rate) << "\n";
  std::cout << "acceptance: every (scenario, stack) run produced jobs "
               "(and campaign scenarios launched workflows) -> "
            << (all_ran ? "COMPLETE" : "INCOMPLETE") << '\n';

  for (const workload::RunResult& r : results) print_result_json(r);

  if (manifest_path != nullptr && write_manifest(manifest_path, results) != 0) {
    return 1;
  }
  bench::scale_note();
  return all_ran ? 0 : 1;
}
