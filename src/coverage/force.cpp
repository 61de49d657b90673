#include "src/coverage/force.h"

#include <deque>
#include <set>

#include "src/bytecode/insn.h"
#include "src/coverage/force_engine.h"
#include "src/dex/io.h"
#include "src/dex/real/real_dex.h"
#include "src/support/bytes.h"
#include "src/support/hash.h"

namespace dexlego::coverage {

void ForcePlan::set(const std::string& method_key, uint32_t pc, bool outcome) {
  outcomes_[{method_key, pc}] = outcome;
}

const bool* ForcePlan::find(std::string_view method_key, uint32_t pc) const {
  auto it = outcomes_.find(std::pair<std::string_view, uint32_t>(method_key, pc));
  return it == outcomes_.end() ? nullptr : &it->second;
}

uint64_t ForcePlan::fingerprint() const { return support::fnv1a(serialize()); }

std::vector<uint8_t> ForcePlan::serialize() const {
  support::ByteWriter w;
  w.u32(static_cast<uint32_t>(outcomes_.size()));
  for (const auto& [key, outcome] : outcomes_) {
    w.str(key.first);
    w.u32(key.second);
    w.u8(outcome ? 1 : 0);
  }
  return w.take();
}

ForcePlan ForcePlan::deserialize(std::span<const uint8_t> data) {
  support::ByteReader r(data);
  ForcePlan plan;
  uint32_t n = r.u32();
  // Every entry needs >= 9 bytes (string length + pc + outcome); a count the
  // payload can't possibly hold is rejected up front instead of looping into
  // a guaranteed truncation (or an attacker-sized allocation).
  if (n > r.remaining() / 9) {
    throw support::ParseError("force plan count exceeds payload");
  }
  for (uint32_t i = 0; i < n; ++i) {
    std::string key = r.str();
    uint32_t pc = r.u32();
    plan.outcomes_[{std::move(key), pc}] = r.u8() != 0;
  }
  if (!r.at_end()) {
    throw support::ParseError("trailing bytes after force plan");
  }
  return plan;
}

std::optional<ForcePlan> ForcePlan::try_deserialize(
    std::span<const uint8_t> data) {
  try {
    return deserialize(data);
  } catch (const support::ParseError&) {
    return std::nullopt;
  }
}

void ForceHooks::on_dex_loaded(const rt::DexImage& image) {
  (void)image;
  keys_.clear();
}

bool ForceHooks::force_branch(rt::RtMethod& method, uint32_t dex_pc,
                              bool* outcome) {
  const std::string& key =
      keys_.get(method, [&] { return CoverageTracker::method_key(method); });
  const bool* planned = plan_.find(key, dex_pc);
  if (planned == nullptr) return false;
  *outcome = *planned;
  ++forced_;
  return true;
}

bool ForceHooks::tolerate_exception(rt::RtMethod& method, uint32_t dex_pc) {
  (void)method, (void)dex_pc;
  if (tolerated_ >= kTolerateCap) return false;
  ++tolerated_;
  return true;
}

bool compute_path(const dex::CodeItem& code, const std::string& method_key,
                  uint32_t ucb_pc, bool outcome, ForcePlan& plan) {
  std::span<const uint16_t> insns(code.insns);
  // BFS over pcs; edges annotated with the branch decision that selects them.
  struct Edge {
    size_t from = SIZE_MAX;
    int decision = -1;  // -1: unconditional, 0: branch not taken, 1: taken
  };
  std::map<size_t, Edge> parent;
  std::deque<size_t> queue;
  parent[0] = Edge{};
  queue.push_back(0);
  bool found = false;
  while (!queue.empty()) {
    size_t pc = queue.front();
    queue.pop_front();
    if (pc == ucb_pc) {
      found = true;
      break;
    }
    bc::Insn insn;
    try {
      insn = bc::decode_at(insns, pc);
    } catch (const support::ParseError&) {
      continue;
    }
    auto visit = [&](size_t next, int decision) {
      if (next >= insns.size() || parent.contains(next)) return;
      parent[next] = Edge{pc, decision};
      queue.push_back(next);
    };
    if (bc::is_conditional_branch(insn.op)) {
      visit(pc + insn.width, 0);
      visit(pc + static_cast<size_t>(insn.off), 1);
    } else {
      try {
        for (size_t next : bc::successors_at(insns, pc)) visit(next, -1);
      } catch (const support::ParseError&) {
      }
    }
  }
  if (!found) return false;

  // Walk back collecting branch decisions along the path.
  size_t pc = ucb_pc;
  while (pc != 0) {
    const Edge& edge = parent.at(pc);
    if (edge.decision >= 0) {
      plan.set(method_key, static_cast<uint32_t>(edge.from), edge.decision == 1);
    }
    pc = edge.from;
  }
  plan.set(method_key, ucb_pc, outcome);
  return true;
}

namespace {

// One forced run: fresh runtime, the plan's ForceHooks attached, coverage
// recorded into `tracker`. Replays options.seed_sequence unless a driver is
// supplied.
void run_plan(const dex::Apk& apk, const ForcePlan& plan,
              const ForceOptions& options, CoverageTracker& tracker) {
  ForceHooks hooks(plan);
  if (options.driver) {
    rt::RuntimeConfig cfg;
    cfg.step_limit = options.run.steps_per_run;
    rt::Runtime runtime(cfg);
    if (options.run.configure_runtime) options.run.configure_runtime(runtime);
    runtime.add_hooks(&tracker);
    for (rt::RuntimeHooks* extra : options.run.extra_hooks) {
      runtime.add_hooks(extra);
    }
    runtime.add_hooks(&hooks);
    runtime.install(apk);
    options.driver(runtime);
    return;
  }
  FuzzOptions run = options.run;
  run.extra_hooks.push_back(&hooks);
  execute_sequence(apk, options.seed_sequence, run, tracker);
}

}  // namespace

ForceResult force_execute(const dex::Apk& apk, const ForceOptions& options,
                          const CoverageTracker& seed) {
  dex::DexFile app = dex::load_classes(apk);
  ForceEngine engine(app, options.engine);
  engine.observe(PlanUnit{}, seed);  // baseline: the seed's natural coverage

  ForceResult result;
  for (;;) {
    std::vector<PlanUnit> wave = engine.next_wave();
    if (wave.empty()) break;
    ++result.iterations;
    for (const PlanUnit& unit : wave) {
      CoverageTracker tracker;
      run_plan(apk, unit.plan, options, tracker);
      engine.observe(unit, tracker);
      ++result.paths_executed;
    }
  }
  result.coverage.merge(engine.coverage());
  result.ucbs_targeted = engine.stats().ucbs_targeted;
  return result;
}

ForceResult single_plan_force_execute(const dex::Apk& apk,
                                      const ForceOptions& options,
                                      const CoverageTracker& seed) {
  dex::DexFile app = dex::load_classes(apk);
  // Static index: method key -> code item.
  std::map<std::string, const dex::CodeItem*> code_of;
  for (const dex::ClassDef& cls : app.classes) {
    for (const auto* methods : {&cls.direct_methods, &cls.virtual_methods}) {
      for (const dex::MethodDef& m : *methods) {
        if (m.code) {
          code_of[CoverageTracker::method_key(app, m.method_ref)] = &*m.code;
        }
      }
    }
  }

  ForceResult result;
  result.coverage.merge(seed);
  std::set<std::tuple<std::string, uint32_t, bool>> attempted;

  for (int iter = 0; iter < options.engine.max_waves; ++iter) {
    // Branch analysis: find new UCBs in the accumulated coverage.
    ForcePlan plan;
    size_t targeted = 0;
    for (const auto& [key, code] : code_of) {
      for (const auto& [pc, seen] : result.coverage.branches(key)) {
        if (seen.taken && seen.untaken) continue;
        bool want = !seen.taken;  // the unseen side
        auto attempt = std::make_tuple(key, pc, want);
        if (attempted.contains(attempt)) continue;
        if (compute_path(*code, key, pc, want, plan)) {
          attempted.insert(attempt);
          ++targeted;
          break;  // one UCB per method per iteration
        }
        attempted.insert(attempt);
      }
    }
    if (targeted == 0) break;  // no new UCB: terminate (paper Fig. 4)
    result.ucbs_targeted += targeted;
    ++result.iterations;

    // Next execution follows the one combined path file.
    CoverageTracker tracker;
    run_plan(apk, plan, options, tracker);
    result.coverage.merge(tracker);
    ++result.paths_executed;
  }
  return result;
}

}  // namespace dexlego::coverage
