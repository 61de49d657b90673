#include "src/pipeline/batch.h"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "src/core/files.h"
#include "src/coverage/force_engine.h"
#include "src/coverage/tracker.h"
#include "src/dex/io.h"
#include "src/dex/real/real_dex.h"
#include "src/support/hash.h"
#include "src/support/timer.h"

namespace dexlego::pipeline {

namespace {

// Everything one executed (app, plan) unit hands back to its app's
// coordinator.
struct UnitOutput {
  core::CollectionOutput collection;
  coverage::CoverageTracker coverage;
  // A plain job's coverage of the original image, scored after its last run.
  coverage::CoverageTracker::Report report;
  size_t leaks = 0;
  size_t forced = 0;
  double cpu_ms = 0.0;
  bool ok = false;
  std::string error;
};

// Executes one (app, plan) unit through DexLego's collect phase, with a
// per-unit coverage tracker and — for forced units — the plan's ForceHooks
// riding along. The baseline unit (empty plan) runs the job's run count as
// given; forced units replay the driver once.
UnitOutput run_unit(const BatchJob& job, const coverage::PlanUnit& unit) {
  UnitOutput out;
  double cpu_start = support::thread_cpu_ms();
  try {
    const bool forced = !unit.plan.empty();
    coverage::ForceHooks force_hooks(unit.plan);

    core::DexLegoOptions options = job.reveal;
    if (forced) options.runs = 1;
    auto base_configure = options.configure_runtime;
    options.configure_runtime = [&, base_configure](rt::Runtime& runtime) {
      if (base_configure) base_configure(runtime);
      if (job.configure_runtime) job.configure_runtime(runtime);
      runtime.add_hooks(&out.coverage);
      if (forced) runtime.add_hooks(&force_hooks);
    };
    auto base_driver = options.driver;
    options.driver = [&](rt::Runtime& runtime, int run_index) {
      if (base_driver) {
        base_driver(runtime, run_index);
      } else {
        core::default_driver(runtime, run_index);
      }
      out.leaks += runtime.leaks().size();
      // A plain job's coverage of the *original* image, scored once every
      // run has been recorded, against the image this runtime parsed from
      // the APK: the APK is parsed and checksummed once per run, never again
      // for coverage. Meaningless for packed inputs whose classes are the
      // shell stub; a job with no run (or a report that throws) leaves 0.
      // Force jobs score the engine's merged coverage instead.
      if (!job.force && run_index + 1 == options.runs &&
          runtime.app_image() != nullptr) {
        try {
          out.report = out.coverage.report(runtime.app_image()->file);
        } catch (const std::exception&) {
        }
      }
    };

    out.collection = core::DexLego::collect(job.apk, options);
    out.forced = force_hooks.forced();
    out.ok = true;
  } catch (const std::exception& e) {
    out.error = e.what();
  } catch (...) {
    out.error = "unknown exception";
  }
  out.cpu_ms = support::thread_cpu_ms() - cpu_start;
  return out;
}

// Per-app coordination state. Workers only touch an app's state while the
// scheduler lock is held or while they own its wave (outstanding hit zero,
// or the wave has one unit).
struct AppState {
  const BatchJob* job = nullptr;  // null until the app's first task starts it
  JobResult result;

  // Force jobs only: the original image, parsed once for the engine's code
  // and the coverage report, and the engine. Held by pointer: every job of
  // a batch has an AppState.
  std::unique_ptr<const dex::DexFile> original;
  std::unique_ptr<coverage::ForceEngine> engine;

  // The wave in flight: its units and their outputs, slot by slot.
  std::vector<coverage::PlanUnit> wave_units;
  std::vector<UnitOutput> wave_outputs;
  size_t outstanding = 0;  // units of a multi-unit wave still executing

  core::CollectionOutput merged;  // baseline, then forced units in plan order
  coverage::CoverageTracker::Report coverage;
  size_t leaks = 0;
  size_t forced_branches = 0;
  size_t force_paths = 0;
  int waves_folded = 0;  // waves merged so far (0 = baseline pending)
  double start_ms = 0.0;
  double cpu_ms = 0.0;
  bool failed = false;
};

// Readies `app` to run `job`: its first wave is the single baseline unit.
void start_app(AppState& app, const BatchJob& job) {
  app.job = &job;
  app.result.name = job.name;
  app.result.scenario = job.scenario;
  app.result.expect_leak = job.expect_leak;
  app.wave_units.push_back(coverage::PlanUnit{});
  app.wave_outputs = std::vector<UnitOutput>(1);
}

// Ends the current wave and frees its buffers, so a finished app holds only
// its result (clear() would keep the capacity).
void release_wave(AppState& app) {
  app.wave_units = std::vector<coverage::PlanUnit>();
  app.wave_outputs = std::vector<UnitOutput>();
}

// Finishes a job from its collection: encodes it once for the Table VI size,
// reassembles, verifies and writes from the in-memory collection, then
// interns it and fills the result.
void finalize_app(AppState& app, DedupStore& store, bool keep_dex) {
  JobResult& result = app.result;
  try {
    size_t collection_bytes = core::encode_collection(app.merged).total_size();
    core::RevealResult reveal = core::DexLego::reassemble_collection(
        std::move(app.merged), app.job->apk, app.job->reveal.reassemble);

    InternedCollection interned = intern_collection(reveal.collection, store);
    result.dedup_interns = interned.interns;
    result.unique_trees = interned.unique_trees;
    result.dedup_hits = interned.hits;
    result.dedup_misses = interned.misses;

    result.verified = reveal.verified;
    result.leaks_observed = app.leaks;
    result.reassemble = reveal.stats;
    result.collection_bytes = collection_bytes;

    const std::vector<uint8_t>& dex_bytes = reveal.revealed_apk.classes();
    result.dex_fingerprint = support::fnv1a(dex_bytes);
    if (keep_dex) result.dex = dex_bytes;

    if (app.engine != nullptr) {
      try {
        app.coverage = app.engine->coverage().report(*app.original);
      } catch (const std::exception&) {
      }
      result.force_waves = app.engine->stats().waves;
    }
    result.instruction_coverage = app.coverage.instruction_pct();
    result.branch_coverage = app.coverage.branch_pct();
    result.forced_branches = app.forced_branches;
    result.force_paths = app.force_paths;
    result.ok = true;
  } catch (const std::exception& e) {
    result.error = e.what();
  } catch (...) {
    result.error = "unknown exception";
  }
}

// Wave end: folds the finished wave in plan order, asks a force job's engine
// for the next frontier, and either fills wave_units for re-dispatch or
// finishes the job. A plain job finishes after its baseline wave. Called
// with exclusive ownership of the app.
void advance_app(AppState& app, DedupStore& store, bool keep_dex) {
  double cpu_start = support::thread_cpu_ms();
  bool baseline_wave = app.waves_folded == 0;
  if (baseline_wave && app.job->force) {
    try {
      app.original =
          std::make_unique<const dex::DexFile>(dex::load_classes(app.job->apk));
      app.engine = std::make_unique<coverage::ForceEngine>(
          *app.original, app.job->force_options);
    } catch (const std::exception& e) {
      app.failed = true;
      app.result.error = std::string("force engine: ") + e.what();
    } catch (...) {
      app.failed = true;
      app.result.error = "force engine: non-std exception";
    }
  }

  try {
    for (size_t s = 0; !app.failed && s < app.wave_units.size(); ++s) {
      UnitOutput& out = app.wave_outputs[s];
      app.cpu_ms += out.cpu_ms;
      if (!out.ok) {
        if (baseline_wave) {
          // No baseline collection: the job fails.
          app.failed = true;
          app.result.error = out.error;
          break;
        }
        // A failed forced path loses only that path. Observing whatever
        // coverage it recorded before dying keeps the observation sequence —
        // and thus the frontier — identical on every schedule, since the
        // failure itself is deterministic for a given plan.
        app.engine->observe(app.wave_units[s], out.coverage);
        continue;
      }
      app.leaks += out.leaks;
      app.forced_branches += out.forced;
      if (baseline_wave) {
        app.merged = std::move(out.collection);
        app.coverage = out.report;
      } else {
        core::merge_collection(app.merged, std::move(out.collection),
                               app.job->reveal.collector.max_variants);
      }
      if (app.engine != nullptr) {
        app.engine->observe(app.wave_units[s], out.coverage);
      }
    }
    if (!baseline_wave) app.force_paths += app.wave_units.size();
    ++app.waves_folded;

    release_wave(app);
    if (!app.failed && app.engine != nullptr) {
      app.wave_units = app.engine->next_wave();
    }
  } catch (const std::exception& e) {
    app.failed = true;
    app.result.error = e.what();
    release_wave(app);
  } catch (...) {
    // Fail closed: a non-std throw (hostile native code can raise anything)
    // must cost this job, not the worker thread — an escape here would
    // std::terminate the whole fleet.
    app.failed = true;
    app.result.error = "unknown exception (non-std type)";
    release_wave(app);
  }
  if (!app.wave_units.empty()) {
    app.wave_outputs = std::vector<UnitOutput>(app.wave_units.size());
    app.outstanding = app.wave_units.size();
    app.cpu_ms += support::thread_cpu_ms() - cpu_start;
    return;
  }

  // Converged (or failed): finish the job.
  if (!app.failed) finalize_app(app, store, keep_dex);
  app.cpu_ms += support::thread_cpu_ms() - cpu_start;
  app.result.cpu_ms = app.cpu_ms;
}

}  // namespace

JobResult run_job(const BatchJob& job, DedupStore& store, bool keep_dex) {
  // The wave loop run_batch shards across workers, run serially on the
  // calling thread. advance_app owns the fold/frontier/finish logic in both
  // cases, so the output is byte-identical to the sharded path
  // (tests/service_test.cpp anchors this).
  support::Stopwatch wall;
  AppState app;
  start_app(app, job);
  while (!app.wave_units.empty()) {
    for (size_t s = 0; s < app.wave_units.size(); ++s) {
      app.wave_outputs[s] = run_unit(job, app.wave_units[s]);
    }
    advance_app(app, store, keep_dex);
  }
  app.result.wall_ms = wall.elapsed_ms();
  return std::move(app.result);
}

BatchReport run_batch(const std::vector<BatchJob>& jobs,
                      const BatchOptions& options) {
  size_t threads = options.threads;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  // Plain jobs can use at most one worker each; force jobs fan out into plan
  // units, so extra workers stay useful even for a single app.
  bool any_force = false;
  for (const BatchJob& job : jobs) any_force |= job.force;
  if (!any_force && threads > jobs.size() && !jobs.empty()) {
    threads = jobs.size();
  }

  DedupStore local_store{DedupStore::Options{
      options.store_shards == 0 ? DedupStore::kDefaultShards
                                : options.store_shards,
      DedupStore::HashFn{}}};
  DedupStore& store = options.store != nullptr ? *options.store : local_store;

  BatchReport report;
  report.jobs.resize(jobs.size());
  support::Stopwatch wall;

  // Scheduler state: a dynamic queue of (app, wave-slot) tasks. Every job
  // starts as one baseline task; force jobs re-enqueue a task per plan unit
  // at every wave end, so one app's exploration spreads across all workers.
  // Workers claim *chunks* of tasks per lock acquisition (adaptive to queue
  // depth), so with thousands of small apps the queue mutex leaves the hot
  // path.
  struct Task {
    size_t app = 0;
    size_t slot = 0;
  };
  std::mutex mu;  // guards queue and multi-unit wave handoff only
  std::condition_variable cv;
  std::deque<Task> queue;
  std::vector<AppState> states(jobs.size());
  // Completion count is an atomic, not mu-guarded state: plain jobs finish
  // without ever re-taking the queue lock.
  std::atomic<size_t> apps_remaining{jobs.size()};

  for (size_t i = 0; i < jobs.size(); ++i) queue.push_back(Task{i, 0});

  // How many tasks one lock acquisition may claim: share the visible
  // backlog across workers (keeping ~2 refills per worker in reserve so a
  // heavyweight chunk cannot starve siblings), floor 1, cap 32.
  constexpr size_t kMaxChunk = 32;
  auto chunk_for = [threads](size_t depth) {
    size_t share = depth / (threads * 2);
    return share < 1 ? size_t{1} : (share > kMaxChunk ? kMaxChunk : share);
  };

  // Decrements the fleet's remaining-app count (batched per chunk). The
  // worker that takes the count to zero locks and releases mu before
  // notifying: the empty lock pairs with the mutex a sleeper holds while
  // evaluating its wait predicate, so the final wakeup cannot be lost — and
  // the notify itself happens with no lock held.
  auto finish_apps = [&](size_t n) {
    if (apps_remaining.fetch_sub(n, std::memory_order_acq_rel) == n) {
      { std::lock_guard<std::mutex> barrier(mu); }
      cv.notify_all();
    }
  };

  // Per-worker scheduler tallies, merged into FleetStats after the join —
  // workers never touch shared stats mid-batch.
  struct WorkerLocal {
    uint64_t pops = 0;
    uint64_t tasks = 0;
    size_t max_chunk = 0;
  };
  std::vector<WorkerLocal> locals(threads);

  auto worker = [&](size_t worker_index) {
    WorkerLocal& local = locals[worker_index];
    std::vector<Task> chunk;
    chunk.reserve(kMaxChunk);
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      cv.wait(lock, [&]() {
        return !queue.empty() ||
               apps_remaining.load(std::memory_order_acquire) == 0;
      });
      if (queue.empty()) return;  // apps_remaining == 0
      size_t take = chunk_for(queue.size());
      chunk.clear();
      while (chunk.size() < take && !queue.empty()) {
        chunk.push_back(queue.front());
        queue.pop_front();
      }
      lock.unlock();
      ++local.pops;
      local.tasks += chunk.size();
      if (chunk.size() > local.max_chunk) local.max_chunk = chunk.size();

      size_t finished = 0;
      for (const Task& task : chunk) {
        AppState& app = states[task.app];
        // Only an app's first task finds it unstarted: every job's first
        // wave is its single baseline unit. Starting here rather than up
        // front keeps wave buffers allocated only while a job runs.
        if (app.job == nullptr) {
          start_app(app, jobs[task.app]);
          app.start_ms = wall.elapsed_ms();
        }

        UnitOutput out = run_unit(*app.job, app.wave_units[task.slot]);
        if (app.wave_units.size() == 1) {
          // A one-unit wave (every plain job, every force baseline) is owned
          // by its only task; the queue pop under mu ordered this worker
          // after the wave's setup, so the output lands without the lock.
          app.wave_outputs[0] = std::move(out);
        } else {
          lock.lock();
          app.wave_outputs[task.slot] = std::move(out);
          bool wave_done = --app.outstanding == 0;
          lock.unlock();
          if (!wave_done) continue;  // wave still in flight elsewhere
        }

        // Wave done: this worker owns the app until it either enqueues the
        // next wave or finishes the job.
        advance_app(app, store, options.keep_dex);
        if (!app.wave_units.empty()) {
          size_t enqueued = app.wave_units.size();
          lock.lock();
          for (size_t s = 0; s < enqueued; ++s) {
            queue.push_back(Task{task.app, s});
          }
          lock.unlock();
          // Wake only as many workers as there are new units (everyone, at
          // chunk granularity, once a wave outgrows the pool) — and do it
          // with the lock released so the woken thread never immediately
          // blocks on mu.
          if (enqueued == 1) {
            cv.notify_one();
          } else {
            cv.notify_all();
          }
        } else {
          app.result.wall_ms = wall.elapsed_ms() - app.start_ms;
          ++finished;
        }
      }
      if (finished > 0) finish_apps(finished);
      lock.lock();
    }
  };

  if (threads <= 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (size_t t = 0; t < threads; ++t) {
      pool.emplace_back(worker, t);
    }
    for (std::thread& thread : pool) thread.join();
  }

  for (size_t i = 0; i < jobs.size(); ++i) {
    report.jobs[i] = std::move(states[i].result);
  }

  FleetStats& fleet = report.fleet;
  fleet.wall_ms = wall.elapsed_ms();
  fleet.threads = threads;
  fleet.jobs = jobs.size();
  for (const WorkerLocal& local : locals) {
    fleet.queue_pops += local.pops;
    fleet.queue_tasks += local.tasks;
    if (local.max_chunk > fleet.max_chunk) fleet.max_chunk = local.max_chunk;
  }
  for (const JobResult& job : report.jobs) {
    if (job.ok) ++fleet.ok;
    if (job.verified) ++fleet.verified;
    if (job.expect_leak) ++fleet.expected_leaky;
    if (job.leaks_observed > 0) ++fleet.observed_leaky;
    fleet.mean_instruction_coverage += job.instruction_coverage;
    fleet.mean_branch_coverage += job.branch_coverage;
    fleet.forced_paths += job.force_paths;
    fleet.dedup_interns += job.dedup_interns;
    fleet.unique_trees += job.unique_trees;
    fleet.dedup_hits += job.dedup_hits;
    fleet.dedup_misses += job.dedup_misses;
    fleet.cpu_ms += job.cpu_ms;
  }
  if (fleet.jobs > 0) {
    fleet.mean_instruction_coverage /= static_cast<double>(fleet.jobs);
    fleet.mean_branch_coverage /= static_cast<double>(fleet.jobs);
  }
  uint64_t interns = fleet.dedup_hits + fleet.dedup_misses;
  fleet.dedup_hit_rate =
      interns == 0 ? 0.0
                   : static_cast<double>(fleet.dedup_hits) /
                         static_cast<double>(interns);
  fleet.store = store.stats();
  if (fleet.wall_ms > 0.0) {
    fleet.apps_per_sec =
        static_cast<double>(fleet.jobs) / (fleet.wall_ms / 1000.0);
  }
  return report;
}

}  // namespace dexlego::pipeline
