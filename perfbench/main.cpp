// dexbench: the end-to-end benchmark of the DexLego extraction path (APK in,
// verified revealed DEX out). It drives the library from outside, through
// the public functions of pipeline, core, runtime, dex, bytecode, coverage
// and service, on three seeded workloads:
//
//   market_batch    market-style apps through pipeline::run_batch
//   hostile_batch   fuzz mutants, packed apps and forced guarded apps
//   service_update  catalog updates against a persistent ExtractionService
//
// With --trace 0 it prints the end-to-end metrics of a timed phase; with
// --trace 1 it decomposes every job into spans around the public calls
// DexLego::reveal and pipeline::run_job make and prints per-layer metrics.
// Every run checks the outputs. perfbench/README.md explains the workloads
// and how to read the numbers; perfbench/run.py builds and runs this binary.
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "perfbench/spans.h"
#include "src/bytecode/verify_code.h"
#include "src/core/dexlego.h"
#include "src/coverage/tracker.h"
#include "src/dex/io.h"
#include "src/dex/real/real_dex.h"
#include "src/fuzz/corpus.h"
#include "src/fuzz/mutator.h"
#include "src/pipeline/batch.h"
#include "src/pipeline/dedup_store.h"
#include "src/pipeline/scenarios.h"
#include "src/service/service.h"
#include "src/support/hash.h"
#include "src/support/rng.h"
#include "src/support/timer.h"

#ifndef DEXBENCH_BUILD_TYPE
#define DEXBENCH_BUILD_TYPE "unknown"
#endif
#ifndef DEXBENCH_COMPILER
#define DEXBENCH_COMPILER "unknown"
#endif

namespace dexbench {
namespace {

namespace pl = dexlego::pipeline;
namespace svc = dexlego::service;
using pl::BatchJob;
using pl::BatchReport;
using pl::JobResult;

// ---------------------------------------------------------------------------
// Process probes and statistics

size_t nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<size_t>(n);
  }
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

// Host CPU time stolen from this VM so far (the "steal" column of the cpu
// line in /proc/stat), in clock ticks; 0 where the kernel does not report it.
// Printed with the summary: latency read while the host steals is not the
// program's.
double steal_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double fields[8] = {};
  stat >> cpu;
  for (double& f : fields) stat >> f;
  return cpu == "cpu" ? fields[7] : 0.0;
}

// Peak resident set (VmHWM) of this process so far, in MiB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// Resets VmHWM to the current resident set, so a later peak_rss_mb() covers
// only what runs after this call. Returns false where the kernel lacks it.
bool reset_peak_rss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

double ms_since(int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e6;
}

// Linear interpolation between closest ranks (numpy's default).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// ---------------------------------------------------------------------------
// Arguments, result line

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;    // tiny corpora, for the benchmark's own tests
  bool corrupt = false;  // flip one output fingerprint: the checks must fail
  std::string workdir = ".bench_build/work";  // stores and span files
};

struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  struct Metric {
    std::string name;
    std::string unit;
    double value = 0.0;
  };
  std::vector<Metric> metrics;

  void metric(const std::string& name, const std::string& unit, double value) {
    metrics.push_back(Metric{name, unit, value});
  }
  // A check that failed outside any single job (e.g. a missing span).
  void error(const std::string& what) {
    if (errors.size() < 20) errors.push_back(what);
  }
  // A job that failed one of its output checks.
  void fail_job(const std::string& what) {
    ++failed;
    error(what);
  }
  bool correct() const { return failed == 0 && errors.empty(); }
};

// Returns what is wrong with one job's output, or "" when every check holds:
// the job finished, its revealed dex verified, a job with leak ground truth
// observed a leak, and its dex fingerprint equals the reference (when given).
std::string job_problem(const std::string& name, bool ok,
                        const std::string& error, bool verified,
                        bool expect_leak, size_t leaks, uint64_t fingerprint,
                        const uint64_t* reference) {
  if (!ok) return name + ": job failed: " + error;
  if (!verified) return name + ": revealed dex failed verification";
  if (expect_leak && leaks == 0) return name + ": expected leak not observed";
  if (reference != nullptr && fingerprint != *reference) {
    return name + ": dex fingerprint differs from the reference run";
  }
  return "";
}

std::string job_problem(const JobResult& r, const uint64_t* reference) {
  return job_problem(r.name, r.ok, r.error, r.verified, r.expect_leak,
                     r.leaks_observed, r.dex_fingerprint, reference);
}

// ---------------------------------------------------------------------------
// Workload inputs. Every corpus is a pure function of --seed.

// Corpus sizes. The hostile mix is drawn by stratum (stratified_fuzz_jobs)
// so its amount of work per pass barely varies with the seed; the service
// rate keeps the workers busy enough that job latency is not dominated by
// thread wake-ups.
struct Sizes {
  size_t market_apps = 4000;
  size_t fuzz_mutants = 432;  // 162 of them goto-loop mutants
  size_t guarded_apps = 48;
  size_t guarded_units = 2000;
  size_t service_apps = 2000;
  double service_rate = 2500.0;  // jobs per second, open loop
  size_t service_tenants = 3;
  size_t probe_apps = 32;  // service probe on the batch workloads
  int setup_repeats = 5;
  int restart_repeats = 20;  // per group; two groups, around the session
};

Sizes sizes_for(bool smoke) {
  Sizes s;
  if (smoke) {
    s.market_apps = 48;
    s.fuzz_mutants = 10;
    s.guarded_apps = 2;
    s.service_apps = 60;
    s.service_rate = 400.0;
    s.probe_apps = 4;
    s.setup_repeats = 1;
    s.restart_repeats = 1;
  }
  return s;
}

constexpr size_t kMutateEvery = 10;  // large_corpus_update_jobs' default
constexpr size_t kUnits = 900;       // large_corpus_jobs' default app size
constexpr size_t kLibraryPool = 48;  // large_corpus_jobs' default pool

uint64_t market_seed0(uint64_t seed) { return 1701 + seed * 1'000'000; }
uint64_t service_seed0(uint64_t seed) {
  return 1701 + seed * 1'000'000 + 500'000;
}
uint64_t fuzz_seed0(uint64_t seed) { return 901 + seed * 100'000; }
uint64_t guarded_seed0(uint64_t seed) { return 301 + seed * 1'000; }

// A stratum of fuzz_jobs' mutants: the family, the seed app and, for
// bytecode mutants, whether the mutation plan holds a goto-loop op. Goto-loop
// mutants spin into the 400k-step budget and carry almost all of the cost;
// most others finish in milliseconds. `share` is the stratum's frequency
// among fuzz_jobs' own mutants, measured over the first 2000 indices at
// seeds 1 to 10 (20000 mutants).
struct FuzzStratum {
  bool behavioral;
  const char* key;
  bool loop;
  double share;
};

constexpr FuzzStratum kFuzzStrata[] = {
    {true, "generated:711:600", false, 0.1621},
    {true, "generated:712:1000", false, 0.1693},
    {true, "generated:713:1800", false, 0.1686},
    {false, "droidbench:Button1", true, 0.0810},
    {false, "droidbench:Clean1", true, 0.0727},
    {false, "droidbench:Straight1", true, 0.0839},
    {false, "generated:701:600", true, 0.0723},
    {false, "generated:702:1400", true, 0.0654},
    {false, "droidbench:Button1", false, 0.0149},
    {false, "droidbench:Clean1", false, 0.0279},
    {false, "droidbench:Straight1", false, 0.0162},
    {false, "generated:701:600", false, 0.0332},
    {false, "generated:702:1400", false, 0.0326},
};

// `count` mutants of fuzz_jobs(…, seed0), each stratum holding its measured
// share of them (largest-remainder rounding). Plain fuzz_jobs(432, seed0)
// holds 144 to 176 goto-loop mutants over seeds 1 to 10; with fixed quotas
// only the mutants themselves change with the seed. The strata are recomputed with
// fuzz_jobs' per-index recipe (src/pipeline/scenarios.cpp): family by index
// parity, then the seed app and the plan drawn from Rng(seed0 + i). Every
// picked mutant is rebuilt from the recomputed plan and must equal
// fuzz_jobs' own byte for byte, so a change to the recipe fails the run
// instead of misclassifying.
std::vector<BatchJob> stratified_fuzz_jobs(size_t count, uint64_t seed0) {
  namespace fz = dexlego::fuzz;
  constexpr size_t kStrata = std::size(kFuzzStrata);
  double total_share = 0.0;
  for (const FuzzStratum& st : kFuzzStrata) total_share += st.share;
  std::vector<size_t> quota(kStrata);
  std::vector<std::pair<double, size_t>> remainders;
  size_t assigned = 0;
  for (size_t k = 0; k < kStrata; ++k) {
    double exact = static_cast<double>(count) * kFuzzStrata[k].share / total_share;
    quota[k] = static_cast<size_t>(exact);
    assigned += quota[k];
    remainders.emplace_back(exact - static_cast<double>(quota[k]), k);
  }
  std::sort(remainders.begin(), remainders.end(), std::greater<>());
  for (size_t r = 0; assigned < count; ++r, ++assigned) ++quota[remainders[r].second];

  const std::vector<std::string> behavioral = fz::behavioral_seed_keys();
  const std::vector<std::string> bytecode = fz::bytecode_seed_keys();
  struct Pick {
    size_t index;
    fz::Family family;
    std::string key;
    std::vector<fz::MutationOp> ops;
  };
  std::map<std::string, fz::SeedInput> seeds;
  std::vector<Pick> picks;
  for (size_t i = 0; picks.size() < count; ++i) {
    if (i > 64 * count + 1024) throw std::runtime_error("fuzz strata unfilled");
    dexlego::support::Rng rng(seed0 + i);
    bool is_behavioral = i % 2 == 0;
    fz::Family family = is_behavioral ? fz::Family::kBehavioral : fz::Family::kBytecode;
    const std::vector<std::string>& pool = is_behavioral ? behavioral : bytecode;
    const std::string& key = pool[rng.below(pool.size())];
    auto it = seeds.find(key);
    if (it == seeds.end()) it = seeds.emplace(key, fz::resolve_seed(key)).first;
    std::vector<fz::MutationOp> ops = fz::plan_ops(family, it->second, rng.next(), 4);
    bool loop = false;  // op kinds are per family; only bytecode has goto-loop
    if (!is_behavioral) {
      for (const fz::MutationOp& op : ops) loop |= op.kind == fz::kGotoLoop;
    }
    size_t k = 0;
    while (k < kStrata && (kFuzzStrata[k].behavioral != is_behavioral ||
                           key != kFuzzStrata[k].key ||
                           kFuzzStrata[k].loop != loop)) {
      ++k;
    }
    if (k == kStrata) throw std::runtime_error("fuzz seed app " + key + " has no stratum");
    if (quota[k] > 0) {
      --quota[k];
      picks.push_back(Pick{i, family, key, std::move(ops)});
    }
  }
  std::vector<BatchJob> all = pl::fuzz_jobs(picks.back().index + 1, seed0);
  std::vector<BatchJob> jobs;
  for (const Pick& pick : picks) {
    BatchJob& job = all[pick.index];
    fz::Mutant rebuilt = fz::apply_ops(pick.family, seeds.at(pick.key), pick.ops);
    if (rebuilt.apk.write() != job.apk.write()) {
      throw std::runtime_error("fuzz_jobs' recipe changed: " + job.name +
                               " differs from its recomputed stratum");
    }
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::vector<BatchJob> market_jobs(uint64_t seed, const Sizes& sz) {
  return pl::large_corpus_jobs(sz.market_apps, market_seed0(seed), kUnits,
                               kLibraryPool);
}

std::vector<BatchJob> hostile_jobs(uint64_t seed, const Sizes& sz) {
  // Forced guarded apps go first: their plan waves fan out across the
  // workers while the fuzz and packed jobs fill the gaps.
  std::vector<BatchJob> jobs =
      pl::guarded_jobs(sz.guarded_apps, guarded_seed0(seed), sz.guarded_units);
  pl::enable_force(jobs, dexlego::coverage::ForceEngineOptions{});
  for (BatchJob& job : stratified_fuzz_jobs(sz.fuzz_mutants, fuzz_seed0(seed))) {
    jobs.push_back(std::move(job));
  }
  for (BatchJob& job : pl::packed_jobs()) jobs.push_back(std::move(job));
  return jobs;
}

// The service corpus: catalog version 0 plus, per later version, the apps
// large_corpus_update_jobs mutates (every kMutateEvery-th). App i of version
// v is large_corpus_update_jobs(1, seed0 + i, ..., v)[0], so only the
// mutated apps are generated.
struct ServiceCorpus {
  std::vector<BatchJob> base;
  std::vector<std::vector<BatchJob>> updates;  // [v - 1][i / kMutateEvery]
};

ServiceCorpus service_corpus(uint64_t seed, size_t apps, size_t versions) {
  ServiceCorpus c;
  uint64_t seed0 = service_seed0(seed);
  c.base = pl::large_corpus_jobs(apps, seed0, kUnits, kLibraryPool);
  for (size_t v = 1; v <= versions; ++v) {
    std::vector<BatchJob> mutated;
    for (size_t i = 0; i < apps; i += kMutateEvery) {
      mutated.push_back(std::move(pl::large_corpus_update_jobs(
          1, seed0 + i, kUnits, kLibraryPool, kMutateEvery, v)[0]));
    }
    c.updates.push_back(std::move(mutated));
  }
  return c;
}

// ---------------------------------------------------------------------------
// Batch passes

BatchReport batch_pass(const std::vector<BatchJob>& jobs, size_t threads,
                       bool keep_dex = false) {
  pl::BatchOptions options;
  options.threads = threads;
  options.keep_dex = keep_dex;
  return pl::run_batch(jobs, options);
}

std::vector<uint64_t> fingerprints(const BatchReport& report) {
  std::vector<uint64_t> out;
  for (const JobResult& r : report.jobs) out.push_back(r.dex_fingerprint);
  return out;
}

// ---------------------------------------------------------------------------
// Traced decomposition of one job

struct TracedJob {
  bool ok = false;
  std::string error;
  bool verified = false;
  size_t leaks = 0;
  uint64_t steps = 0;
  uint64_t fingerprint = 0;
};

// Runs `job` through the public calls DexLego::reveal and run_job make, in
// their order, with a span around each. Force jobs are timed at the run_job
// level. The revealed dex must be byte-identical to run_job's.
TracedJob traced_job(const BatchJob& job, uint64_t id, pl::DedupStore& store,
                     SpanLog& log) {
  namespace core = dexlego::core;
  namespace dex = dexlego::dex;
  ScopedSpan job_span(log, "job", id);
  TracedJob out;
  if (job.force) {
    ScopedSpan span(log, "pipeline.run_job", id);
    JobResult r = pl::run_job(job, store, /*keep_dex=*/false);
    out.ok = r.ok;
    out.error = r.error;
    out.verified = r.verified;
    out.leaks = r.leaks_observed;
    out.fingerprint = r.dex_fingerprint;
    return out;
  }
  const core::DexLegoOptions& options = job.reveal;
  try {
    // Opened after the last stage; the job's state, declared below it, is
    // destroyed inside it.
    std::optional<ScopedSpan> release;
    dexlego::coverage::CoverageTracker tracker;
    core::Collector collector(options.collector);
    core::CollectionOutput output;
    core::CollectionFiles files;
    core::CollectionOutput collection;
    core::ReassembleResult reassembled;
    dex::Apk revealed;
    dex::DexFile original;
    for (int run = 0; run < options.runs; ++run) {
      std::optional<dexlego::rt::Runtime> runtime;
      {
        ScopedSpan span(log, "runtime.setup", id);
        runtime.emplace(options.runtime);
        if (options.configure_runtime) options.configure_runtime(*runtime);
        if (job.configure_runtime) job.configure_runtime(*runtime);
        runtime->add_hooks(&tracker);
        runtime->add_hooks(&collector);
      }
      {
        ScopedSpan span(log, "runtime.install", id);
        runtime->install(job.apk);
      }
      {
        ScopedSpan span(log, "runtime.execute", id);
        if (options.driver) {
          options.driver(*runtime, run);
        } else {
          core::default_driver(*runtime, run);
        }
        out.leaks += runtime->leaks().size();
        out.steps += runtime->interp().steps();
      }
      {
        ScopedSpan span(log, "runtime.teardown", id);
        runtime->remove_hooks(&collector);
        runtime.reset();
      }
    }
    {
      ScopedSpan span(log, "core.take_output", id);
      output = collector.take_output();
    }
    {
      ScopedSpan span(log, "core.encode", id);
      files = core::encode_collection(output);
    }
    {
      ScopedSpan span(log, "core.decode", id);
      collection = core::decode_collection(files);
    }
    {
      ScopedSpan span(log, "core.reassemble", id);
      reassembled = core::reassemble(collection, options.reassemble);
    }
    {
      ScopedSpan span(log, "bytecode.verify", id);
      out.verified = dexlego::bc::verify_dex(reassembled.file).ok();
    }
    {
      ScopedSpan span(log, "dex.write", id);
      revealed = job.apk;
      dex::strip_real_classes(revealed);
      revealed.set_classes(dex::write_dex(reassembled.file));
    }
    {
      ScopedSpan span(log, "pipeline.intern", id);
      pl::intern_collection(collection, store);
    }
    {
      ScopedSpan span(log, "pipeline.fingerprint", id);
      out.fingerprint = dexlego::support::fnv1a(revealed.classes());
    }
    // Coverage of the original image; packed shells may not parse, which
    // run_job also tolerates.
    try {
      {
        ScopedSpan span(log, "coverage.reparse", id);
        original = dex::load_classes(job.apk);
      }
      ScopedSpan span(log, "coverage.report", id);
      tracker.report(original);
    } catch (const std::exception&) {
    }
    out.ok = true;
    release.emplace(log, "pipeline.release", id);
  } catch (const std::exception& e) {
    out.error = e.what();
  } catch (...) {
    out.error = "unknown exception";
  }
  return out;
}

// Stage spans reported as per-layer metrics: mean self time per traced job.
const char* const kStages[][2] = {
    {"runtime.setup", "runtime.setup_ms"},
    {"runtime.install", "runtime.install_ms"},
    {"runtime.execute", "runtime.execute_ms"},
    {"runtime.teardown", "runtime.teardown_ms"},
    {"core.take_output", "core.take_output_ms"},
    {"core.encode", "core.encode_ms"},
    {"core.decode", "core.decode_ms"},
    {"core.reassemble", "core.reassemble_ms"},
    {"bytecode.verify", "bytecode.verify_ms"},
    {"dex.write", "dex.write_ms"},
    {"pipeline.intern", "pipeline.intern_ms"},
    {"pipeline.fingerprint", "pipeline.fingerprint_ms"},
    {"pipeline.release", "pipeline.release_ms"},
    {"coverage.reparse", "coverage.reparse_ms"},
    {"coverage.report", "coverage.report_ms"},
};

// ---------------------------------------------------------------------------
// Service sessions

struct StreamItem {
  const BatchJob* job = nullptr;
  size_t tenant = 0;
  size_t ref = 0;  // index of this app in the cold reference list
};

struct Outcome {
  std::string name;
  std::string error;
  bool ok = false;
  bool verified = false;
  bool expect_leak = false;
  bool incremental = false;
  size_t leaks = 0;
  uint64_t fingerprint = 0;
  size_t item = 0;
  double latency_ms = 0.0;
};

struct Session {
  std::vector<Outcome> outcomes;  // in completion order
  std::vector<double> submit_us;
  std::vector<double> lag_ms;
  double wall_ms = 0.0;  // first due time to last job seen terminal
  // Service CPU (process CPU less the generator thread's) per kWindowNs
  // window of due times, sampled when the generator crosses each boundary.
  std::vector<double> window_cpu_ms;
  std::vector<double> window_steal;  // host steal ticks per such window
  double peak_rss_mb = 0.0;  // at the end of the session
};

// Short windows: host steal comes in bursts of a few hundred ms, so even a
// run with steal in every second has calm tenths of a second.
constexpr int64_t kWindowNs = 100'000'000;

bool terminal(svc::JobState s) {
  return s != svc::JobState::kQueued && s != svc::JobState::kRunning;
}

// Open-loop generator: item k is due at t0 + k / rate and is submitted then,
// whatever the service is doing; between submissions the same thread polls
// the outstanding jobs. A job's latency runs from its due time to the poll
// that first sees it terminal.
Session open_loop(svc::ExtractionService& service,
                  const std::vector<StreamItem>& stream, double rate,
                  SpanLog* log) {
  constexpr int64_t kPollNs = 20'000;
  Session session;
  if (stream.empty()) return session;
  std::vector<std::string> tenants;
  for (const StreamItem& item : stream) {
    while (tenants.size() <= item.tenant) {
      tenants.push_back("tenant-" + std::to_string(tenants.size()));
    }
  }
  struct Pending {
    svc::JobId id;
    size_t item;
    int64_t due;
  };
  std::vector<Pending> pending;
  const double period_ns = 1e9 / rate;
  auto service_cpu_ms = [] {
    return process_cpu_ms() - dexlego::support::thread_cpu_ms();
  };
  double window_cpu0 = service_cpu_ms();
  double window_steal0 = steal_ticks();
  const int64_t t0 = now_ns() + 1'000'000;
  int64_t window_end = t0 + kWindowNs;
  BatchJob prepared = *stream[0].job;
  size_t next = 0;
  int64_t last_poll = 0;
  while (next < stream.size() || !pending.empty()) {
    int64_t now = now_ns();
    if (now >= window_end) {
      // A stalled generator crosses several boundaries at once; each window
      // it crossed gets an even share of the CPU and all of the steal, so
      // none of them passes for calm.
      const int64_t crossed = 1 + (now - window_end) / kWindowNs;
      double cpu = service_cpu_ms();
      double steal = steal_ticks();
      for (int64_t k = 0; k < crossed; ++k) {
        session.window_cpu_ms.push_back((cpu - window_cpu0) / static_cast<double>(crossed));
        session.window_steal.push_back(steal - window_steal0);
      }
      window_cpu0 = cpu;
      window_steal0 = steal;
      window_end += crossed * kWindowNs;
    }
    if (next < stream.size()) {
      int64_t due = t0 + static_cast<int64_t>(period_ns * static_cast<double>(next));
      if (now >= due) {
        session.lag_ms.push_back(static_cast<double>(now - due) / 1e6);
        int64_t start = now_ns();
        svc::JobId id = service.submit(std::move(prepared),
                                       tenants[stream[next].tenant]);
        int64_t end = now_ns();
        if (log != nullptr) log->add("service.submit", start, end, next, 0);
        session.submit_us.push_back(static_cast<double>(end - start) / 1e3);
        pending.push_back(Pending{id, next, due});
        if (++next < stream.size()) prepared = *stream[next].job;
        continue;
      }
    }
    if (now - last_poll < kPollNs) {
      std::this_thread::yield();
      continue;
    }
    last_poll = now;
    for (size_t k = 0; k < pending.size();) {
      svc::JobStatus status = service.poll(pending[k].id);
      if (!terminal(status.state)) {
        ++k;
        continue;
      }
      int64_t done = now_ns();
      const JobResult& r = status.result;
      Outcome o;
      o.name = stream[pending[k].item].job->name;
      o.error = status.error;
      o.ok = status.state == svc::JobState::kDone && r.ok;
      o.verified = r.verified;
      o.expect_leak = stream[pending[k].item].job->expect_leak;
      o.incremental = status.incremental;
      o.leaks = r.leaks_observed;
      o.fingerprint = r.dex_fingerprint;
      o.item = pending[k].item;
      o.latency_ms = static_cast<double>(done - pending[k].due) / 1e6;
      if (log != nullptr) {
        log->add("service.job", pending[k].due, done, pending[k].item, 1);
      }
      session.outcomes.push_back(std::move(o));
      session.wall_ms = static_cast<double>(done - t0) / 1e6;
      pending[k] = pending.back();
      pending.pop_back();
    }
  }
  // The window still open when the last job finished.
  session.window_cpu_ms.push_back(service_cpu_ms() - window_cpu0);
  session.window_steal.push_back(steal_ticks() - window_steal0);
  session.peak_rss_mb = peak_rss_mb();
  return session;
}

// Runs `jobs` cold into a fresh store at `dir` and closes the service.
void prepopulate(const std::string& dir, const std::vector<BatchJob>& jobs,
                 size_t threads) {
  std::filesystem::remove_all(dir);
  svc::ServiceOptions options;
  options.threads = threads;
  options.keep_dex = false;
  svc::ExtractionService service(dir, options);
  std::vector<BatchJob> copy = jobs;
  service.submit_batch(std::move(copy), "setup");
  service.wait_idle();
  service.checkpoint();
}

// Times `repeats` constructions of ExtractionService on the store at `dir`,
// appending each to `out`; each instance is closed outside its timing.
void time_restarts(const std::string& dir, size_t workers, int repeats,
                   std::vector<double>& out) {
  svc::ServiceOptions options;
  options.threads = workers;
  options.keep_dex = false;
  for (int k = 0; k < repeats; ++k) {
    int64_t start = now_ns();
    svc::ExtractionService service(dir, options);
    out.push_back(ms_since(start));
  }
}

// Service-layer numbers common to the service workload and the service
// probe of the batch workloads.
struct ServiceLayer {
  svc::PersistentDedupStore::OpenStats open;
  Session session;
  double checkpoint_ms = 0.0;
  double drain_ms = 0.0;
};

// Reopens the store at `dir`, optionally warms the service with `warmup`,
// runs `stream` open loop, then checkpoints and closes it.
ServiceLayer service_session(const std::string& dir, size_t workers,
                             const std::vector<BatchJob>& warmup,
                             const std::vector<StreamItem>& stream,
                             double rate, SpanLog* log) {
  ServiceLayer layer;
  svc::ServiceOptions options;
  options.threads = workers;
  options.keep_dex = false;
  int64_t open_start = now_ns();
  auto service = std::make_unique<svc::ExtractionService>(dir, options);
  if (log != nullptr) log->add("service.open", open_start, now_ns(), 0, 0);
  layer.open = service->open_stats();
  if (!warmup.empty()) {
    std::vector<BatchJob> copy = warmup;
    service->submit_batch(std::move(copy), "warmup");
    service->wait_idle();
  }
  layer.session = open_loop(*service, stream, rate, log);
  int64_t start = now_ns();
  service->checkpoint();
  layer.checkpoint_ms = ms_since(start);
  if (log != nullptr) log->add("service.checkpoint", start, now_ns(), 0, 0);
  start = now_ns();
  service.reset();
  layer.drain_ms = ms_since(start);
  if (log != nullptr) log->add("service.close", start, now_ns(), 0, 0);
  return layer;
}

// Checks every outcome against the cold reference fingerprints; returns the
// number of outcomes that passed.
size_t check_outcomes(Result& res, const Session& session,
                      const std::vector<StreamItem>& stream,
                      const std::vector<uint64_t>& reference) {
  size_t good = 0;
  for (const Outcome& o : session.outcomes) {
    std::string problem =
        job_problem(o.name, o.ok, o.error, o.verified, o.expect_leak, o.leaks,
                    o.fingerprint, &reference[stream[o.item].ref]);
    if (problem.empty()) {
      ++good;
    } else {
      res.fail_job(problem);
    }
  }
  return good;
}

void service_layer_metrics(Result& res, const ServiceLayer& layer) {
  std::vector<double> warm;
  std::vector<double> cold;
  for (const Outcome& o : layer.session.outcomes) {
    (o.incremental ? warm : cold).push_back(o.latency_ms);
  }
  double n = static_cast<double>(layer.session.outcomes.size());
  res.metric("service.replay_bytes", "bytes",
             static_cast<double>(layer.open.restored_bytes));
  res.metric("service.validated_records", "count",
             static_cast<double>(layer.open.validated_records));
  res.metric("service.submit_us", "us", median(layer.session.submit_us));
  res.metric("service.warm_p50_ms", "ms", median(warm));
  res.metric("service.cold_p50_ms", "ms", median(cold));
  res.metric("service.generator_lag_ms", "ms",
             quantile(layer.session.lag_ms, 0.99));
  res.metric("service.warm_hit_rate", "ratio",
             n > 0 ? static_cast<double>(warm.size()) / n : 0.0);
  res.metric("service.checkpoint_ms", "ms", layer.checkpoint_ms);
  res.metric("service.drain_ms", "ms", layer.drain_ms);
  res.metric("service.latency_samples", "count", n);
}

// The service stream: catalog versions 1, 2, ... in app order, `count` jobs
// in all, app i submitted by tenant i % tenants. ref indexes the reference
// list base ++ updates[0] ++ updates[1] ++ ...
std::vector<StreamItem> update_stream(const ServiceCorpus& c, size_t count,
                                      size_t tenants) {
  std::vector<StreamItem> stream;
  size_t apps = c.base.size();
  size_t per_version = c.updates.empty() ? 0 : c.updates[0].size();
  for (size_t k = 0; k < count; ++k) {
    size_t v = 1 + k / apps;
    size_t i = k % apps;
    StreamItem item;
    item.tenant = i % tenants;
    if (i % kMutateEvery == 0) {
      item.job = &c.updates.at(v - 1)[i / kMutateEvery];
      item.ref = apps + (v - 1) * per_version + i / kMutateEvery;
    } else {
      item.job = &c.base[i];
      item.ref = i;
    }
    stream.push_back(item);
  }
  return stream;
}

// ---------------------------------------------------------------------------
// Trace-mode layer metrics shared by all workloads

// Everything the traced mode measures over one workload's inputs.
struct TracePlan {
  const std::vector<BatchJob>* jobs = nullptr;  // traced sequentially
  const std::vector<uint64_t>* reference = nullptr;
  BatchReport parallel;  // one run_batch over the workload (keep_dex)
  double parallel_cpu_ms = 0.0;
  size_t threads = 1;
};

// Sequential untraced run_job pass, traced pass, span metrics, and the
// fingerprint checks between them and the reference.
void trace_layers(Result& res, TracePlan& plan, const Args& args) {
  const std::vector<BatchJob>& jobs = *plan.jobs;
  const BatchReport& par = plan.parallel;

  // The parallel pass: scheduler, dedup and output-size numbers.
  double busy = par.fleet.wall_ms > 0
                    ? plan.parallel_cpu_ms /
                          (par.fleet.wall_ms * static_cast<double>(plan.threads))
                    : 0.0;
  uint64_t collection_bytes = 0, guards = 0, variants = 0, revealed = 0;
  uint64_t force_paths = 0;
  double branch = 0.0;
  for (const JobResult& r : par.jobs) {
    collection_bytes += r.collection_bytes;
    guards += r.reassemble.guards;
    variants += r.reassemble.variants;
    revealed += r.dex.size();
    force_paths += r.force_paths;
    branch += r.branch_coverage;
  }
  res.metric("pipeline.worker_busy", "ratio", busy);
  res.metric("pipeline.tasks_per_pop", "ratio",
             par.fleet.queue_pops > 0
                 ? static_cast<double>(par.fleet.queue_tasks) /
                       static_cast<double>(par.fleet.queue_pops)
                 : 0.0);
  res.metric("pipeline.dedup_hit_rate", "ratio", par.fleet.dedup_hit_rate);
  res.metric("core.collection_bytes", "bytes",
             static_cast<double>(collection_bytes));
  res.metric("core.guards", "count", static_cast<double>(guards));
  res.metric("core.variants", "count", static_cast<double>(variants));
  res.metric("dex.revealed_bytes", "bytes", static_cast<double>(revealed));
  res.metric("coverage.branch_pct", "%",
             par.jobs.empty()
                 ? 0.0
                 : 100.0 * branch / static_cast<double>(par.jobs.size()));

  // Sequential passes, untraced (run_job) and traced, interleaved job by job
  // in alternating order, so both see the same host conditions and the
  // difference between them is the tracing overhead.
  SpanLog log;
  uint64_t steps = 0;
  size_t classic = 0;
  std::vector<double> force_ms;
  double untraced_ms = 0.0;
  double traced_ms = 0.0;
  pl::DedupStore untraced_store;
  pl::DedupStore traced_store;
  for (size_t j = 0; j < jobs.size(); ++j) {
    const uint64_t* reference = &(*plan.reference)[j];
    auto untraced = [&] {
      int64_t start = now_ns();
      JobResult r = pl::run_job(jobs[j], untraced_store, /*keep_dex=*/false);
      untraced_ms += ms_since(start);
      std::string problem = job_problem(r, reference);
      if (!problem.empty()) res.error("untraced pass: " + problem);
    };
    if (j % 2 == 0) untraced();
    int64_t start = now_ns();
    TracedJob t = traced_job(jobs[j], j, traced_store, log);
    double job_ms = ms_since(start);
    traced_ms += job_ms;
    if (j % 2 == 1) untraced();
    if (jobs[j].force) {
      force_ms.push_back(job_ms);
    } else {
      ++classic;
    }
    steps += t.steps;
    if (args.corrupt && j == 0) t.fingerprint ^= 1;
    ++res.attempted;
    std::string problem =
        job_problem(jobs[j].name, t.ok, t.error, t.verified,
                    jobs[j].expect_leak, t.leaks, t.fingerprint, reference);
    if (!problem.empty()) res.fail_job("traced pass: " + problem);
  }

  // Force cost: the workload's own force jobs, or one forced exploration of
  // its first app when it has none.
  if (force_ms.empty() && !jobs.empty()) {
    BatchJob probe = jobs[0];
    probe.force = true;
    pl::DedupStore store;
    int64_t probe_start = now_ns();
    JobResult r = pl::run_job(probe, store, /*keep_dex=*/false);
    force_ms.push_back(ms_since(probe_start));
    force_paths = r.force_paths;
    std::string problem = job_problem(r, nullptr);
    if (!problem.empty()) res.error("force probe: " + problem);
  }
  double force_sum = 0.0;
  for (double v : force_ms) force_sum += v;
  res.metric("coverage.force_job_ms", "ms",
             force_ms.empty() ? 0.0 : force_sum / static_cast<double>(force_ms.size()));
  res.metric("coverage.force_paths", "count", static_cast<double>(force_paths));

  // Span metrics.
  std::map<std::string, SpanLog::Total> totals = log.totals();
  double per_job = classic > 0 ? 1.0 / static_cast<double>(classic) : 0.0;
  for (const auto& stage : kStages) {
    auto it = totals.find(stage[0]);
    double self_ms = it == totals.end() ? 0.0 : static_cast<double>(it->second.self_ns) / 1e6;
    if (classic > 0 && it == totals.end()) res.error(std::string("no span ") + stage[0]);
    res.metric(stage[1], "ms", self_ms * per_job);
  }
  double execute_ns = totals.count("runtime.execute") != 0
                          ? static_cast<double>(totals["runtime.execute"].self_ns)
                          : 0.0;
  res.metric("runtime.steps", "count", static_cast<double>(steps));
  res.metric("runtime.ns_per_step", "ns",
             steps > 0 ? execute_ns / static_cast<double>(steps) : 0.0);
  const SpanLog::Total& job_total = totals["job"];
  res.metric("trace.stage_coverage", "ratio",
             job_total.wall_ns > 0
                 ? 1.0 - static_cast<double>(job_total.self_ns) /
                             static_cast<double>(job_total.wall_ns)
                 : 0.0);
  res.metric("trace.overhead_pct", "%",
             untraced_ms > 0 ? 100.0 * (traced_ms - untraced_ms) / untraced_ms : 0.0);
  res.metric("trace.jobs", "count", static_cast<double>(jobs.size()));

  std::string path = args.workdir + "/spans-" + args.workload + ".json";
  char meta[512];
  std::snprintf(meta, sizeof(meta),
                "{\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %zu, "
                "\"build_type\": \"%s\", \"compiler\": \"%s\"}",
                args.workload.c_str(), static_cast<unsigned long long>(args.seed),
                nproc(), DEXBENCH_BUILD_TYPE, DEXBENCH_COMPILER);
  if (!log.write_chrome(path, meta)) res.error("cannot write span file " + path);
  std::fprintf(stderr, "spans: %zu written to %s\n", log.spans().size(), path.c_str());
}

// Service probe for the batch workloads: the first probe_apps classic jobs are
// extracted into a fresh store, then the first 2 * probe_apps classic jobs are
// submitted open loop (half warm, half cold).
void service_probe(Result& res, const std::vector<BatchJob>& jobs,
                   const std::vector<uint64_t>& reference, const Args& args,
                   const Sizes& sz) {
  // Force jobs are never served warm, so the probe takes classic jobs.
  std::vector<size_t> classic;
  for (size_t i = 0; i < jobs.size() && classic.size() < 2 * sz.probe_apps; ++i) {
    if (!jobs[i].force) classic.push_back(i);
  }
  size_t half = classic.size() / 2;
  std::vector<BatchJob> warm;
  for (size_t k = 0; k < half; ++k) warm.push_back(jobs[classic[k]]);
  std::string dir = args.workdir + "/probe-store";
  prepopulate(dir, warm, nproc());
  std::vector<StreamItem> stream;
  for (size_t k = 0; k < 2 * half; ++k) {
    stream.push_back(StreamItem{&jobs[classic[k]], k % sz.service_tenants, classic[k]});
  }
  ServiceLayer layer = service_session(dir, std::max<size_t>(1, nproc() - 1), {},
                                       stream, 250.0, nullptr);
  Result probe;
  check_outcomes(probe, layer.session, stream, reference);
  for (const std::string& e : probe.errors) res.error("service probe: " + e);
  service_layer_metrics(res, layer);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Workload runners

using Builder = std::function<std::vector<BatchJob>()>;

Result run_batch_workload(const Args& args, const Sizes& sz,
                          const Builder& build) {
  Result res;
  const size_t threads = nproc();
  std::vector<double> setup_s;
  std::vector<BatchJob> jobs;
  for (int k = 0; k < (args.trace ? 1 : sz.setup_repeats); ++k) {
    jobs = {};  // never hold two corpora at once
    int64_t start = now_ns();
    jobs = build();
    setup_s.push_back(ms_since(start) / 1e3);
  }

  // Warm-up pass, outside the timed phase; its fingerprints are the
  // reference every later pass must reproduce. It is also the batch
  // workloads' restart: the first pass of a fresh process, with cold caches,
  // lazy initialisation and a fresh store.
  int64_t warm_start = now_ns();
  BatchReport warm = batch_pass(jobs, threads);
  const double restart_ms = ms_since(warm_start);
  std::vector<uint64_t> reference = fingerprints(warm);
  for (const JobResult& r : warm.jobs) {
    std::string problem = job_problem(r, nullptr);
    if (!problem.empty()) res.error("warm-up pass: " + problem);
  }

  if (args.trace) {
    TracePlan plan;
    plan.jobs = &jobs;
    plan.reference = &reference;
    plan.threads = threads;
    double cpu0 = process_cpu_ms();
    plan.parallel = batch_pass(jobs, threads, /*keep_dex=*/true);
    plan.parallel_cpu_ms = process_cpu_ms() - cpu0;
    for (size_t j = 0; j < jobs.size(); ++j) {
      std::string problem = job_problem(plan.parallel.jobs[j], &reference[j]);
      if (!problem.empty()) res.error("parallel pass: " + problem);
    }
    trace_layers(res, plan, args);
    service_probe(res, jobs, reference, args, sz);
    return res;
  }

  // Timed phase: whole passes, each on a fresh store, until --seconds.
  // Throughput, CPU and peak RSS are medians over the passes, so a burst of
  // host contention (or of allocator growth) during one pass does not move
  // them. Each pass's peak RSS is its own: the high-water mark is reset
  // before it. Job latency percentiles pool every job of the phase, so that
  // even on hostile_batch (515 jobs a pass) p99 has over ten samples beyond
  // it.
  const double setup_rss_mb = peak_rss_mb();
  std::vector<double> pass_rss;
  std::vector<double> pass_rate;
  std::vector<double> pass_cpu;
  std::vector<double> job_ms;
  int64_t t0 = now_ns();
  do {
    if (!reset_peak_rss()) res.error("cannot reset the peak RSS");
    double cpu0 = process_cpu_ms();
    int64_t start = now_ns();
    BatchReport report = batch_pass(jobs, threads);
    double wall_s = ms_since(start) / 1e3;
    pass_rss.push_back(peak_rss_mb());
    pass_cpu.push_back((process_cpu_ms() - cpu0) / static_cast<double>(jobs.size()));
    if (args.corrupt && pass_rate.empty()) report.jobs[0].dex_fingerprint ^= 1;
    size_t good = 0;
    for (size_t j = 0; j < jobs.size(); ++j) {
      const JobResult& r = report.jobs[j];
      ++res.attempted;
      job_ms.push_back(r.wall_ms);
      std::string problem = job_problem(r, &reference[j]);
      if (problem.empty()) {
        ++good;
      } else {
        res.fail_job(problem);
      }
    }
    pass_rate.push_back(static_cast<double>(good) / wall_s);
  } while (ms_since(t0) < args.seconds * 1e3);

  res.metric("apps_per_sec", "1/s", median(pass_rate));
  res.metric("cpu_ms_per_app", "ms", median(pass_cpu));
  res.metric("job_p50_ms", "ms", quantile(job_ms, 0.5));
  res.metric("job_p99_ms", "ms", quantile(job_ms, 0.99));
  res.metric("restart_ms", "ms", restart_ms);
  res.metric("peak_rss_mb", "MB", median(pass_rss));
  res.metric("setup_s", "s", median(setup_s));
  std::fprintf(stderr, "peak RSS: %.1f MB through set-up and warm-up; per pass:",
               setup_rss_mb);
  for (double r : pass_rss) std::fprintf(stderr, " %.1f", r);
  std::fprintf(stderr, " MB\n");
  std::fprintf(stderr, "timed phase: %zu passes of %zu jobs (%zu latency "
               "samples); apps/s per pass:", pass_rate.size(), jobs.size(),
               job_ms.size());
  for (double r : pass_rate) std::fprintf(stderr, " %.1f", r);
  std::fprintf(stderr, "\n");
  return res;
}

Result run_service_workload(const Args& args, const Sizes& sz) {
  Result res;
  const size_t threads = nproc();
  const size_t workers = std::max<size_t>(1, threads - 1);
  const size_t count = static_cast<size_t>(std::llround(sz.service_rate * args.seconds));
  const size_t versions = (count + sz.service_apps - 1) / sz.service_apps;
  const std::string dir = args.workdir + "/service-store";
  // restart_ms reopens a copy of the populated store, so the session's
  // writes to `dir` do not change what later reopens replay.
  const std::string restart_dir = args.workdir + "/restart-store";

  std::vector<double> setup_s;
  ServiceCorpus corpus;
  for (int k = 0; k < (args.trace ? 1 : sz.setup_repeats); ++k) {
    corpus = {};  // never hold two corpora at once
    int64_t start = now_ns();
    corpus = service_corpus(args.seed, sz.service_apps, versions);
    prepopulate(dir, corpus.base, threads);
    std::filesystem::remove_all(restart_dir);
    std::filesystem::copy(dir, restart_dir, std::filesystem::copy_options::recursive);
    setup_s.push_back(ms_since(start) / 1e3);
  }
  std::vector<StreamItem> stream = update_stream(corpus, count, sz.service_tenants);

  // Warm-up: the version-0 catalog again, all served warm, untimed.
  std::vector<BatchJob> warmup(
      corpus.base.begin(),
      corpus.base.begin() + static_cast<long>(std::min<size_t>(500, corpus.base.size())));
  // Restart samples come in two groups, before and after the session, so
  // that one slow stretch of the host does not set the median.
  std::vector<double> restart_ms;
  if (!args.trace) time_restarts(restart_dir, workers, sz.restart_repeats, restart_ms);
  // peak_rss_mb covers the timed phase only: reopen, warm-up and session.
  const double setup_rss_mb = peak_rss_mb();
  if (!reset_peak_rss()) res.error("cannot reset the peak RSS");
  SpanLog log;
  ServiceLayer layer = service_session(dir, workers, warmup, stream, sz.service_rate,
                                       args.trace ? &log : nullptr);
  const Session& session = layer.session;
  if (!args.trace) time_restarts(restart_dir, workers, sz.restart_repeats, restart_ms);
  std::filesystem::remove_all(restart_dir);

  // Cold reference: every distinct app the stream carried, through
  // run_batch on a fresh store (ARCHITECTURE invariant 14: warm output
  // equals cold output).
  std::vector<BatchJob> distinct = corpus.base;
  size_t used_versions = stream.empty() ? 0 : 1 + (stream.size() - 1) / corpus.base.size();
  for (size_t v = 0; v < used_versions; ++v) {
    for (const BatchJob& job : corpus.updates[v]) distinct.push_back(job);
  }
  double ref_cpu0 = process_cpu_ms();
  BatchReport cold = batch_pass(distinct, threads, /*keep_dex=*/args.trace);
  double ref_cpu_ms = process_cpu_ms() - ref_cpu0;
  std::vector<uint64_t> reference = fingerprints(cold);
  for (const JobResult& r : cold.jobs) {
    std::string problem = job_problem(r, nullptr);
    if (!problem.empty()) res.error("cold reference: " + problem);
  }
  Session checked = session;
  if (args.corrupt && !checked.outcomes.empty()) checked.outcomes[0].fingerprint ^= 1;
  res.attempted = stream.size();
  size_t good = check_outcomes(res, checked, stream, reference);

  if (args.trace) {
    service_layer_metrics(res, layer);
    // The traced passes cover the service's cold work: the mutated apps.
    std::vector<BatchJob> cold_jobs(distinct.begin() + static_cast<long>(corpus.base.size()),
                                    distinct.end());
    std::vector<uint64_t> cold_ref(reference.begin() + static_cast<long>(corpus.base.size()),
                                   reference.end());
    TracePlan plan;
    plan.jobs = &cold_jobs;
    plan.reference = &cold_ref;
    plan.threads = threads;
    plan.parallel = std::move(cold);
    plan.parallel_cpu_ms = ref_cpu_ms;
    trace_layers(res, plan, args);
    std::filesystem::remove_all(dir);
    return res;
  }

  // Latency percentiles and CPU per window of due times, then the median
  // over the calmest eighth of the windows the submission phase filled:
  // those in which the host stole the least CPU time from this VM. A window
  // in which the host steals reads several times the latency of a calm one,
  // and how many windows of a run it hits varies from run to run. Among
  // windows with equal steal, every eighth window goes first, so a calm
  // run's picks spread over the whole session rather than its start.
  const size_t per_window = std::max<size_t>(
      1, static_cast<size_t>(std::llround(sz.service_rate * kWindowNs / 1e9)));
  const size_t windows = std::max<size_t>(1, stream.size() / per_window);
  std::vector<std::vector<double>> latency(windows);
  for (const Outcome& o : session.outcomes) {
    latency[std::min(windows - 1, o.item / per_window)].push_back(o.latency_ms);
  }
  auto steal_in = [&](size_t w) {
    return w < session.window_steal.size() ? session.window_steal[w] : HUGE_VAL;
  };
  std::vector<size_t> calm(windows);
  for (size_t w = 0; w < windows; ++w) calm[w] = w;
  std::sort(calm.begin(), calm.end(), [&](size_t a, size_t b) {
    return std::make_tuple(steal_in(a), a % 8, a) < std::make_tuple(steal_in(b), b % 8, b);
  });
  calm.resize((windows + 7) / 8);
  std::vector<double> p50, p99, cpu;
  size_t samples = 0;
  for (size_t w : calm) {
    samples += latency[w].size();
    p50.push_back(quantile(latency[w], 0.5));
    p99.push_back(quantile(latency[w], 0.99));
    if (w < session.window_cpu_ms.size()) {
      cpu.push_back(session.window_cpu_ms[w] / static_cast<double>(per_window));
    }
  }
  res.metric("apps_per_sec", "1/s", static_cast<double>(good) / (session.wall_ms / 1e3));
  res.metric("cpu_ms_per_app", "ms", median(cpu));
  res.metric("job_p50_ms", "ms", median(p50));
  res.metric("job_p99_ms", "ms", median(p99));
  res.metric("restart_ms", "ms", median(restart_ms));
  res.metric("peak_rss_mb", "MB", session.peak_rss_mb);
  res.metric("setup_s", "s", median(setup_s));
  std::fprintf(stderr, "restart (%llu bytes replayed, %zu records validated), ms:",
               static_cast<unsigned long long>(layer.open.restored_bytes),
               layer.open.validated_records);
  for (double ms : restart_ms) std::fprintf(stderr, " %.2f", ms);
  std::fprintf(stderr, "\n");
  std::fprintf(stderr, "peak RSS: %.1f MB through set-up, %.1f MB in the timed "
               "phase\n", setup_rss_mb, session.peak_rss_mb);
  std::fprintf(stderr, "windows (steal ticks, p99 ms):");
  for (size_t w = 0; w < windows; ++w) {
    std::fprintf(stderr, " %.0f:%.2f", steal_in(w), quantile(latency[w], 0.99));
  }
  std::fprintf(stderr, "\n");
  std::fprintf(stderr, "timed phase: %zu jobs at %.0f/s in %zu windows, %zu warm; "
               "latency metrics from %zu samples in the %zu calmest windows\n",
               stream.size(), sz.service_rate, windows,
               static_cast<size_t>(std::count_if(session.outcomes.begin(), session.outcomes.end(),
                                                 [](const Outcome& o) { return o.incremental; })),
               samples, calm.size());
  std::filesystem::remove_all(dir);
  return res;
}

// ---------------------------------------------------------------------------

int usage() {
  std::fprintf(stderr,
               "usage: dexbench --workload market_batch|hostile_batch|service_update\n"
               "                [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n"
               "                [--workdir DIR] [--corrupt]\n");
  return 2;
}

int run(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      args.workload = value();
    } else if (a == "--seed") {
      args.seed = std::stoull(value());
    } else if (a == "--seconds") {
      args.seconds = std::stod(value());
    } else if (a == "--trace") {
      args.trace = value() != "0";
    } else if (a == "--smoke") {
      args.smoke = true;
    } else if (a == "--corrupt") {
      args.corrupt = true;
    } else if (a == "--workdir") {
      args.workdir = value();
    } else {
      return usage();
    }
  }
  if (args.workload != "market_batch" && args.workload != "hostile_batch" &&
      args.workload != "service_update") {
    return usage();
  }
  std::filesystem::create_directories(args.workdir);
  Sizes sz = sizes_for(args.smoke);

  const double steal0 = steal_ticks();
  const int64_t run_start = now_ns();
  Result res;
  if (args.workload == "market_batch") {
    res = run_batch_workload(args, sz, [&] { return market_jobs(args.seed, sz); });
  } else if (args.workload == "hostile_batch") {
    res = run_batch_workload(args, sz, [&] { return hostile_jobs(args.seed, sz); });
  } else {
    res = run_service_workload(args, sz);
  }

  const double cpu_ticks = ms_since(run_start) / 1e3 *
                           static_cast<double>(sysconf(_SC_CLK_TCK)) *
                           static_cast<double>(nproc());
  std::fprintf(stderr, "host steal: %.1f%% of this VM's CPU time during the run\n",
               cpu_ticks > 0 ? 100.0 * (steal_ticks() - steal0) / cpu_ticks : 0.0);
  for (const std::string& e : res.errors) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  std::fprintf(stderr, "attempted %llu, failed %llu, fail_rate %.6f\n",
               static_cast<unsigned long long>(res.attempted),
               static_cast<unsigned long long>(res.failed),
               res.attempted > 0 ? static_cast<double>(res.failed) /
                                       static_cast<double>(res.attempted)
                                 : 0.0);
  std::printf("# host {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %zu, "
              "\"build_type\": \"%s\", \"compiler\": \"%s\", \"trace\": %d}\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              nproc(), DEXBENCH_BUILD_TYPE, DEXBENCH_COMPILER, args.trace ? 1 : 0);
  std::string line = "{\"correct\": ";
  line += res.correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(res.attempted);
  line += ", \"failed\": " + std::to_string(res.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < res.metrics.size(); ++i) {
    char value[64];
    double v = res.metrics[i].value;
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(v) ? v : 0.0);
    line += (i == 0 ? "\"" : ", \"") + res.metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + res.metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return res.correct() ? 0 : 1;
}

}  // namespace
}  // namespace dexbench

int main(int argc, char** argv) {
  try {
    return dexbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dexbench: %s\n", e.what());
    return 3;
  }
}
