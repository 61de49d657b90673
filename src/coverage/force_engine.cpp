#include "src/coverage/force_engine.h"

namespace dexlego::coverage {

ForceEngine::ForceEngine(const dex::DexFile& app, ForceEngineOptions options)
    : options_(options) {
  for (const dex::ClassDef& cls : app.classes) {
    for (const auto* methods : {&cls.direct_methods, &cls.virtual_methods}) {
      for (const dex::MethodDef& m : *methods) {
        if (m.code) {
          code_of_[CoverageTracker::method_key(app, m.method_ref)] = *m.code;
        }
      }
    }
  }
}

void ForceEngine::observe(const PlanUnit& unit,
                          const CoverageTracker& run_coverage) {
  accumulated_.merge(run_coverage);
  // Claim every branch site this run saw first: calling observe() in plan
  // order makes the winner — and so the whole frontier — schedule-
  // independent.
  std::shared_ptr<const Prefix> prefix;
  for (const auto& [key, method] : run_coverage.methods()) {
    for (const auto& [pc, seen] : method.branches()) {
      (void)seen;
      if (!prefix) {
        prefix = std::make_shared<const Prefix>(Prefix{unit.plan, unit.depth});
      }
      first_seen_.try_emplace({key, pc}, prefix);
    }
  }
}

std::vector<PlanUnit> ForceEngine::next_wave() {
  std::vector<PlanUnit> wave;
  if (stats_.waves >= options_.max_waves) return wave;

  // Branch analysis over the accumulated coverage, in deterministic order:
  // methods ascend (code_of_ is an ordered map), pcs ascend, untaken side
  // before taken. Both uncovered sides of a branch become separate targets.
  for (const auto& [key, code] : code_of_) {
    for (const auto& [pc, seen] : accumulated_.branches(key)) {
      for (bool want : {false, true}) {
        bool covered = want ? seen.taken : seen.untaken;
        if (covered) continue;
        auto target = std::make_tuple(key, pc, want);
        if (!attempted_.insert(target).second) continue;
        auto seen_it = first_seen_.find({key, pc});
        const Prefix* prefix =
            seen_it != first_seen_.end() ? seen_it->second.get() : nullptr;
        int depth = (prefix != nullptr ? prefix->depth : 0) + 1;
        if (depth > options_.max_depth) {
          ++stats_.pruned_depth;
          continue;
        }
        if (stats_.plans_issued >= options_.max_plans) {
          ++stats_.pruned_budget;
          continue;
        }
        // Path analysis: the prefix plan that reached the branch site,
        // extended with the intraprocedural path to the UCB.
        ForcePlan plan = prefix != nullptr ? prefix->plan : ForcePlan();
        if (!compute_path(code, key, pc, want, plan)) continue;
        if (!visited_plans_.insert(plan.fingerprint()).second) continue;
        ++stats_.plans_issued;
        ++stats_.ucbs_targeted;
        wave.push_back(PlanUnit{std::move(plan), key, pc, want, depth});
      }
    }
  }
  if (!wave.empty()) ++stats_.waves;
  return wave;
}

}  // namespace dexlego::coverage
