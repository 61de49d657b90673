#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/benchsuite/appgen.h"
#include "src/bytecode/assembler.h"
#include "src/bytecode/insn.h"
#include "src/coverage/force.h"
#include "src/coverage/fuzzer.h"
#include "src/coverage/tracker.h"
#include "src/core/dexlego.h"
#include "src/dex/builder.h"
#include "src/dex/io.h"
#include "src/dex/real/real_dex.h"
#include "src/pipeline/batch.h"
#include "src/pipeline/scenarios.h"
#include "src/support/bytes.h"

namespace dexlego::coverage {
namespace {

using bc::MethodAssembler;
using bc::Op;

dex::Apk guarded_app() {
  // onCreate: if (getText(3).equals("magicword")) { reach(); }
  dex::DexBuilder b;
  uint32_t magic = b.intern_string("magicword");
  uint16_t find_view = static_cast<uint16_t>(
      b.intern_method("Landroid/app/Activity;", "findViewById",
                      "Landroid/view/View;", {"I"}));
  uint16_t get_text = static_cast<uint16_t>(b.intern_method(
      "Landroid/widget/EditText;", "getText", "Ljava/lang/String;", {}));
  uint16_t equals = static_cast<uint16_t>(
      b.intern_method("Ljava/lang/String;", "equals", "I", {"Ljava/lang/String;"}));
  b.start_class("Lcov/Main;", "Landroid/app/Activity;");
  {
    MethodAssembler as(4, 0);
    as.const16(0, 11);
    as.mul_lit8(0, 0, 3);
    as.return_value(0);
    b.add_direct_method("reach", "I", {}, as.finish());
  }
  uint16_t reach = static_cast<uint16_t>(b.intern_method("Lcov/Main;", "reach", "I", {}));
  {
    MethodAssembler as(4, 1);  // this v3
    auto skip = as.make_label();
    as.const16(0, 3);
    as.invoke(Op::kInvokeVirtual, find_view, {3, 0});
    as.move_result(0);
    as.invoke(Op::kInvokeVirtual, get_text, {0});
    as.move_result(0);
    as.const_string(1, static_cast<uint16_t>(magic));
    as.invoke(Op::kInvokeVirtual, equals, {0, 1});
    as.move_result(1);
    as.if_testz(Op::kIfEqz, 1, skip);
    as.invoke(Op::kInvokeStatic, reach, {});
    as.move_result(2);
    as.bind(skip);
    as.return_void();
    b.add_virtual_method("onCreate", "V", {}, as.finish());
  }
  dex::Apk apk;
  dex::Manifest manifest;
  manifest.package = "cov";
  manifest.entry_class = "Lcov/Main;";
  apk.set_manifest(manifest);
  apk.set_classes(dex::write_dex(std::move(b).build()));
  return apk;
}

TEST(Tracker, ReportsAllGranularities) {
  dex::Apk apk = guarded_app();
  CoverageTracker tracker;
  rt::Runtime runtime;
  runtime.add_hooks(&tracker);
  runtime.install(apk);
  runtime.launch();
  dex::DexFile file = dex::read_dex(apk.classes());
  CoverageTracker::Report report = tracker.report(file);
  EXPECT_EQ(report.classes_total, 1u);
  EXPECT_EQ(report.classes_covered, 1u);
  EXPECT_EQ(report.methods_total, 2u);
  EXPECT_EQ(report.methods_covered, 1u);  // reach() behind the guard
  EXPECT_GT(report.instructions_total, 0u);
  EXPECT_LT(report.instruction_pct(), 1.0);
  EXPECT_GT(report.instruction_pct(), 0.3);
  // One conditional, only the untaken side observed.
  EXPECT_EQ(report.branches_total, 2u);
  EXPECT_EQ(report.branches_covered, 1u);
}

TEST(Tracker, MergeAccumulates) {
  dex::Apk apk = guarded_app();
  dex::DexFile file = dex::read_dex(apk.classes());
  CoverageTracker a, b;
  {
    rt::Runtime runtime;
    runtime.add_hooks(&a);
    runtime.install(apk);
    runtime.launch();
  }
  {
    rt::Runtime runtime;
    runtime.add_hooks(&b);
    runtime.set_text_input(3, "magicword");
    runtime.install(apk);
    runtime.launch();
  }
  EXPECT_LT(a.report(file).method_pct(), 1.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.report(file).method_pct(), 1.0);
  EXPECT_DOUBLE_EQ(a.report(file).branch_pct(), 1.0);
}

TEST(Fuzzer, RandomInputsRarelyPassSemanticGuards) {
  dex::Apk apk = guarded_app();
  FuzzOptions options;
  options.generations = 2;
  options.population = 4;
  FuzzResult result = fuzz_app(apk, options);
  EXPECT_GT(result.runs, 0u);
  dex::DexFile file = dex::read_dex(apk.classes());
  EXPECT_LT(result.coverage.report(file).method_pct(), 1.0);
}

TEST(ForcePlan, PathFileRoundTrip) {
  ForcePlan plan;
  plan.set("La;->m()V", 10, true);
  plan.set("Lb;->n()V", 4, false);
  ForcePlan back = ForcePlan::deserialize(plan.serialize());
  ASSERT_NE(back.find("La;->m()V", 10), nullptr);
  EXPECT_TRUE(*back.find("La;->m()V", 10));
  ASSERT_NE(back.find("Lb;->n()V", 4), nullptr);
  EXPECT_FALSE(*back.find("Lb;->n()V", 4));
  EXPECT_EQ(back.find("La;->m()V", 11), nullptr);
  EXPECT_EQ(back.size(), 2u);
}

TEST(ForcePath, ComputesBranchDecisions) {
  // entry -> if A -> if B -> target; require both decisions recorded.
  MethodAssembler as(2, 0);
  auto l1 = as.make_label();
  auto l2 = as.make_label();
  as.const16(0, 0);
  as.if_testz(Op::kIfNez, 0, l1);  // pc 2
  as.return_void();
  as.bind(l1);
  as.if_testz(Op::kIfLtz, 0, l2);  // after l1
  as.return_void();
  as.bind(l2);
  as.const16(1, 9);
  as.return_void();
  dex::CodeItem code = as.finish();

  // Locate the second conditional's pc.
  uint32_t ucb_pc = 0;
  {
    std::span<const uint16_t> insns(code.insns);
    size_t pc = 0;
    int seen = 0;
    while (pc < insns.size()) {
      bc::Insn insn = bc::decode_at(insns, pc);
      if (bc::is_conditional_branch(insn.op) && ++seen == 2) {
        ucb_pc = static_cast<uint32_t>(pc);
      }
      pc += insn.width;
    }
  }
  ForcePlan plan;
  ASSERT_TRUE(compute_path(code, "k", ucb_pc, true, plan));
  const bool* first = plan.find("k", 2);
  ASSERT_NE(first, nullptr);
  EXPECT_TRUE(*first);  // must take the first branch to reach the second
  const bool* second = plan.find("k", ucb_pc);
  ASSERT_NE(second, nullptr);
  EXPECT_TRUE(*second);
}

TEST(ForceExecution, ReachesGuardedCode) {
  dex::Apk apk = guarded_app();
  dex::DexFile file = dex::read_dex(apk.classes());

  // Seed with a plain run (guard not taken).
  CoverageTracker seed;
  {
    rt::Runtime runtime;
    runtime.add_hooks(&seed);
    runtime.install(apk);
    runtime.launch();
  }
  EXPECT_LT(seed.report(file).method_pct(), 1.0);

  ForceOptions options;
  ForceResult result = force_execute(apk, options, seed);
  EXPECT_GT(result.iterations, 0);
  EXPECT_DOUBLE_EQ(result.coverage.report(file).method_pct(), 1.0);
  EXPECT_DOUBLE_EQ(result.coverage.report(file).branch_pct(), 1.0);
}

TEST(ForceExecution, ToleratesInfeasiblePathExceptions) {
  // Forcing a branch that guards a division leads to /0 — the tolerance
  // machinery clears it and the run continues (paper IV-E).
  dex::DexBuilder b;
  b.start_class("Lcov/Main;", "Landroid/app/Activity;");
  MethodAssembler as(3, 1);
  auto danger = as.make_label();
  auto end = as.make_label();
  as.const16(0, 0);
  as.if_testz(Op::kIfNez, 0, danger);  // never taken naturally
  as.goto_(end);
  as.bind(danger);
  as.const16(1, 1);
  as.binop(Op::kDiv, 1, 1, 0);  // 1/0 on the forced path
  as.const16(2, 7);             // must still execute after tolerance
  as.bind(end);
  as.return_void();
  b.add_virtual_method("onCreate", "V", {}, as.finish());
  dex::Apk apk;
  dex::Manifest manifest;
  manifest.package = "cov2";
  manifest.entry_class = "Lcov/Main;";
  apk.set_manifest(manifest);
  apk.set_classes(dex::write_dex(std::move(b).build()));
  dex::DexFile file = dex::read_dex(apk.classes());

  CoverageTracker seed;
  {
    rt::Runtime runtime;
    runtime.add_hooks(&seed);
    runtime.install(apk);
    runtime.launch();
  }
  ForceResult result = force_execute(apk, ForceOptions{}, seed);
  EXPECT_DOUBLE_EQ(result.coverage.report(file).instruction_pct(), 1.0);
}

TEST(Appgen, DeterministicAndSized) {
  suite::AppSpec spec;
  spec.name = "t";
  spec.package = "gen.t";
  spec.seed = 5;
  spec.target_units = 5000;
  spec.full_coverage_style = true;
  suite::GeneratedApp a = suite::generate_app(spec);
  suite::GeneratedApp b2 = suite::generate_app(spec);
  EXPECT_EQ(a.code_units, b2.code_units);
  EXPECT_EQ(a.apk.classes(), b2.apk.classes());
  // Within 15% of the requested size.
  EXPECT_NEAR(static_cast<double>(a.code_units), 5000.0, 750.0);
  // Runs to completion.
  rt::Runtime runtime;
  runtime.install(a.apk);
  EXPECT_TRUE(runtime.launch().completed);
}

TEST(Appgen, FullCoverageStyleCoversEverything) {
  suite::AppSpec spec;
  spec.name = "t";
  spec.package = "gen.fc";
  spec.seed = 9;
  spec.target_units = 3000;
  spec.full_coverage_style = true;
  suite::GeneratedApp app = suite::generate_app(spec);
  CoverageTracker tracker;
  rt::Runtime runtime;
  runtime.add_hooks(&tracker);
  runtime.install(app.apk);
  ASSERT_TRUE(runtime.launch().completed);
  dex::DexFile file = dex::read_dex(app.apk.classes());
  CoverageTracker::Report report = tracker.report(file);
  EXPECT_DOUBLE_EQ(report.instruction_pct(), 1.0);
  EXPECT_DOUBLE_EQ(report.branch_pct(), 1.0);
}

TEST(Appgen, GuardedAndDeadFractionsLimitCoverage) {
  suite::AppSpec spec;
  spec.name = "t";
  spec.package = "gen.g";
  spec.seed = 10;
  spec.target_units = 8000;
  spec.guarded_fraction = 0.5;
  spec.dead_fraction = 0.2;
  suite::GeneratedApp app = suite::generate_app(spec);
  CoverageTracker tracker;
  rt::Runtime runtime;
  runtime.add_hooks(&tracker);
  runtime.install(app.apk);
  ASSERT_TRUE(runtime.launch().completed);
  dex::DexFile file = dex::read_dex(app.apk.classes());
  double pct = tracker.report(file).instruction_pct();
  EXPECT_GT(pct, 0.1);
  EXPECT_LT(pct, 0.5);  // guarded + dead code unreached
}

// --- the per-method tracker against the string-keyed reference ---

using Sites = std::map<std::string, std::map<uint32_t, CoverageTracker::BranchSeen>>;

// The tracker as it was before recording became per method: one string key
// and one std::set / std::map insert per event, and a line-table scan per
// instruction. CoverageTracker must report exactly what this reports.
class ReferenceTracker : public rt::RuntimeHooks {
 public:
  uint32_t subscribed_events() const override {
    return rt::hook_mask(rt::HookEvent::kInstruction) |
           rt::hook_mask(rt::HookEvent::kBranch);
  }
  void on_instruction(rt::RtMethod& method, uint32_t dex_pc,
                      std::span<const uint16_t>) override {
    pcs_[CoverageTracker::method_key(method)].insert(dex_pc);
  }
  void on_branch(rt::RtMethod& method, uint32_t dex_pc, bool taken) override {
    CoverageTracker::BranchSeen& seen =
        branches_[CoverageTracker::method_key(method)][dex_pc];
    (taken ? seen.taken : seen.untaken) = true;
  }
  void merge(const ReferenceTracker& other) {
    for (const auto& [key, pcs] : other.pcs_) {
      pcs_[key].insert(pcs.begin(), pcs.end());
    }
    for (const auto& [key, sites] : other.branches_) {
      for (const auto& [pc, seen] : sites) {
        branches_[key][pc].taken |= seen.taken;
        branches_[key][pc].untaken |= seen.untaken;
      }
    }
  }
  const Sites& branch_sites() const { return branches_; }

  CoverageTracker::Report report(const dex::DexFile& app) const {
    CoverageTracker::Report report;
    for (const dex::ClassDef& cls : app.classes) {
      bool class_covered = false;
      bool class_has_code = false;
      for (const auto* methods : {&cls.direct_methods, &cls.virtual_methods}) {
        for (const dex::MethodDef& m : *methods) {
          if (!m.code) continue;
          class_has_code = true;
          ++report.methods_total;
          std::string key = CoverageTracker::method_key(app, m.method_ref);
          auto pcs_it = pcs_.find(key);
          const std::set<uint32_t>* executed =
              pcs_it == pcs_.end() ? nullptr : &pcs_it->second;
          if (executed != nullptr && !executed->empty()) {
            ++report.methods_covered;
            class_covered = true;
          }
          std::span<const uint16_t> insns(m.code->insns);
          std::set<uint32_t> lines_hit, lines_all;
          auto line_of = [&](uint16_t pc) -> uint32_t {
            uint32_t line = 0;
            for (const dex::LineEntry& e : m.code->lines) {
              if (e.pc <= pc) line = e.line;
            }
            return line;
          };
          size_t pc = 0;
          while (pc < insns.size()) {
            bc::Insn insn;
            try {
              insn = bc::decode_at(insns, pc);
            } catch (const support::ParseError&) {
              break;
            }
            if (insn.op != bc::Op::kPayload) {
              ++report.instructions_total;
              uint32_t line = line_of(static_cast<uint16_t>(pc));
              if (line != 0) lines_all.insert(line);
              if (executed != nullptr &&
                  executed->contains(static_cast<uint32_t>(pc))) {
                ++report.instructions_covered;
                if (line != 0) lines_hit.insert(line);
              }
              if (bc::is_conditional_branch(insn.op)) {
                report.branches_total += 2;
                auto sites = branches_.find(key);
                if (sites != branches_.end()) {
                  auto bit = sites->second.find(static_cast<uint32_t>(pc));
                  if (bit != sites->second.end()) {
                    report.branches_covered += (bit->second.taken ? 1 : 0) +
                                               (bit->second.untaken ? 1 : 0);
                  }
                }
              }
            }
            pc += insn.width;
          }
          report.lines_total += lines_all.size();
          report.lines_covered += lines_hit.size();
        }
      }
      if (class_has_code) {
        ++report.classes_total;
        if (class_covered) ++report.classes_covered;
      }
    }
    return report;
  }

 private:
  std::map<std::string, std::set<uint32_t>> pcs_;
  Sites branches_;
};

Sites branch_sites(const CoverageTracker& tracker) {
  Sites sites;
  for (const auto& [key, method] : tracker.methods()) {
    for (const auto& [pc, seen] : method.branches()) sites[key][pc] = seen;
  }
  return sites;
}

std::string describe(const CoverageTracker::Report& r) {
  std::ostringstream out;
  out << "classes " << r.classes_covered << "/" << r.classes_total
      << " methods " << r.methods_covered << "/" << r.methods_total
      << " lines " << r.lines_covered << "/" << r.lines_total << " branches "
      << r.branches_covered << "/" << r.branches_total << " instructions "
      << r.instructions_covered << "/" << r.instructions_total;
  return out.str();
}

// Every Report field and every branch site equal, scored against the job's
// own original image (skipped when that does not parse).
void expect_equivalent(const CoverageTracker& tracker,
                       const ReferenceTracker& reference, const dex::Apk& apk) {
  EXPECT_TRUE(branch_sites(tracker) == reference.branch_sites());
  try {
    dex::DexFile file = dex::load_classes(apk);
    CoverageTracker::Report mine = tracker.report(file);
    CoverageTracker::Report theirs = reference.report(file);
    EXPECT_TRUE(mine == theirs) << describe(mine) << " vs " << describe(theirs);
  } catch (const support::ParseError&) {
  }
}

// Collects `job` with both trackers riding along on every runtime.
void record(const pipeline::BatchJob& job, int runs, CoverageTracker& tracker,
            ReferenceTracker& reference) {
  core::DexLegoOptions options = job.reveal;
  options.runs = runs;
  auto base_configure = options.configure_runtime;
  options.configure_runtime = [&](rt::Runtime& runtime) {
    if (base_configure) base_configure(runtime);
    if (job.configure_runtime) job.configure_runtime(runtime);
    runtime.add_hooks(&tracker);
    runtime.add_hooks(&reference);
  };
  try {
    core::DexLego::collect(job.apk, options);
  } catch (const std::exception&) {
    // Hostile jobs may fail; both trackers saw the same events up to there.
  }
}

// DroidBench, fuzz mutants and self-modifying apps (the tamper native swaps
// code between loop iterations).
std::vector<pipeline::BatchJob> equivalence_jobs() {
  std::vector<pipeline::BatchJob> jobs = pipeline::droidbench_jobs();
  for (pipeline::BatchJob& job : pipeline::fuzz_jobs(24)) {
    jobs.push_back(std::move(job));
  }
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    suite::AppSpec spec;
    spec.name = "selfmod" + std::to_string(seed);
    spec.package = "gen.selfmod";
    spec.seed = seed;
    spec.target_units = 600;
    spec.self_modifying = true;
    suite::GeneratedApp app = suite::generate_app(spec);
    pipeline::BatchJob job;
    job.name = spec.name;
    job.apk = std::move(app.apk);
    job.configure_runtime = std::move(app.configure_runtime);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

TEST(TrackerEquivalence, MatchesStringKeyedReference) {
  for (const pipeline::BatchJob& job : equivalence_jobs()) {
    SCOPED_TRACE(job.name);
    CoverageTracker tracker;
    ReferenceTracker reference;
    record(job, job.reveal.runs, tracker, reference);
    expect_equivalent(tracker, reference, job.apk);
  }
}

TEST(TrackerEquivalence, TwoRunsReuseOneTracker) {
  // The second runtime may reuse the first one's RtMethod addresses; the
  // tracker's method memo is cleared when the second install loads its dex.
  for (const pipeline::BatchJob& job : equivalence_jobs()) {
    SCOPED_TRACE(job.name);
    CoverageTracker tracker;
    ReferenceTracker reference;
    record(job, 2, tracker, reference);
    expect_equivalent(tracker, reference, job.apk);
  }
}

TEST(TrackerEquivalence, MergeMatchesReference) {
  std::vector<pipeline::BatchJob> jobs = equivalence_jobs();
  for (size_t i = 0; i + 1 < jobs.size(); i += 2) {
    SCOPED_TRACE(jobs[i].name + " + " + jobs[i + 1].name);
    CoverageTracker a, b;
    ReferenceTracker ref_a, ref_b;
    record(jobs[i], 1, a, ref_a);
    record(jobs[i + 1], 1, b, ref_b);
    // Record the same app again into `b` so both sides hold its keys.
    record(jobs[i], 1, b, ref_b);
    a.merge(b);
    ref_a.merge(ref_b);
    expect_equivalent(a, ref_a, jobs[i].apk);
    expect_equivalent(a, ref_a, jobs[i + 1].apk);
  }
}

TEST(TrackerEquivalence, CopiedAndMovedTrackersRecordIntoTheirOwnEntries) {
  // A tracker copied or moved mid-run takes over on the same runtime with no
  // image load in between, then records new coverage (the guarded branch's
  // taken side and reach()). It must build its own method memo: a memo
  // carried over would write into the source's entries.
  dex::Apk apk = guarded_app();
  dex::DexFile file = dex::load_classes(apk);
  for (bool move : {false, true}) {
    SCOPED_TRACE(move ? "move" : "copy");
    CoverageTracker tracker;
    ReferenceTracker reference;
    rt::Runtime runtime;
    runtime.add_hooks(&tracker);
    runtime.add_hooks(&reference);
    runtime.install(apk);
    runtime.launch();
    CoverageTracker::Report before = tracker.report(file);
    ASSERT_LT(before.method_pct(), 1.0);

    std::optional<CoverageTracker> successor;
    if (move) {
      successor.emplace(std::move(tracker));
    } else {
      successor.emplace(tracker);
    }
    runtime.remove_hooks(&tracker);
    runtime.add_hooks(&*successor);
    runtime.set_text_input(3, "magicword");
    runtime.call_activity_method("onCreate");
    expect_equivalent(*successor, reference, apk);
    EXPECT_DOUBLE_EQ(successor->report(file).method_pct(), 1.0);
    if (!move) EXPECT_TRUE(tracker.report(file) == before);
  }
}

TEST(TrackerEquivalence, BitmapsGrowWithTheCodeArray) {
  // Self-modifying code can resize a method's array under the tracker.
  rt::RtMethod method;
  method.name = "f";
  method.shorty = "()V";
  std::vector<uint16_t> small(8), large(1000);
  CoverageTracker tracker;
  tracker.on_instruction(method, 3, small);
  tracker.on_branch(method, 3, true);
  tracker.on_instruction(method, 900, large);
  tracker.on_branch(method, 900, false);
  tracker.on_branch(method, 901, true);
  const CoverageTracker::MethodCoverage& recorded =
      tracker.methods().at(CoverageTracker::method_key(method));
  EXPECT_TRUE(recorded.executed(3));
  EXPECT_TRUE(recorded.executed(900));
  EXPECT_FALSE(recorded.executed(4));
  EXPECT_FALSE(recorded.executed(100000));
  std::vector<std::pair<uint32_t, CoverageTracker::BranchSeen>> sites(
      recorded.branches().begin(), recorded.branches().end());
  ASSERT_EQ(sites.size(), 3u);
  EXPECT_EQ(sites[0].first, 3u);
  EXPECT_TRUE(sites[0].second.taken && !sites[0].second.untaken);
  EXPECT_EQ(sites[1].first, 900u);
  EXPECT_TRUE(!sites[1].second.taken && sites[1].second.untaken);
  EXPECT_EQ(sites[2].first, 901u);
}

TEST(TrackerEquivalence, BatchCoverageMatchesPinnedTable) {
  // tests/data/coverage/job_coverage.txt holds the per-job coverage the
  // string-keyed tracker gave for exactly this batch.
  std::vector<pipeline::BatchJob> jobs = pipeline::droidbench_jobs();
  for (pipeline::BatchJob& job : pipeline::large_corpus_jobs(200)) {
    jobs.push_back(std::move(job));
  }
  pipeline::BatchOptions options;
  options.threads = 4;
  options.keep_dex = false;
  pipeline::BatchReport report = pipeline::run_batch(jobs, options);

  std::ifstream pins(std::string(DEXLEGO_COVERAGE_DATA_DIR) +
                     "/job_coverage.txt");
  ASSERT_TRUE(pins.good());
  size_t row = 0;
  for (std::string line; std::getline(pins, line);) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, instruction, branch;
    fields >> name >> instruction >> branch;
    ASSERT_LT(row, report.jobs.size());
    const pipeline::JobResult& job = report.jobs[row++];
    EXPECT_EQ(job.name, name);
    EXPECT_TRUE(job.ok) << name << ": " << job.error;
    EXPECT_EQ(job.instruction_coverage, std::strtod(instruction.c_str(), nullptr))
        << name;
    EXPECT_EQ(job.branch_coverage, std::strtod(branch.c_str(), nullptr)) << name;
  }
  EXPECT_EQ(row, report.jobs.size());
}

}  // namespace
}  // namespace dexlego::coverage
