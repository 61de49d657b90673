// Interpreter dispatch throughput in the two dispatch modes —
// decode-every-step (DispatchMode::kBaseline, reported as "fallback") and
// the predecoded cached path ("cached") — over two workloads:
//
//   hot_loop — a tight loop exercising every inline cache the cached path
//              adds (const-string, sget/sput, iget, invoke-static,
//              monomorphic invoke-virtual) plus a dispatch-heavy unrolled
//              stretch of cmp/if/const/move;
//   self_mod — the same loop with a native patching a const literal every
//              iteration through RtMethod::patch_code_unit, measuring
//              per-iteration targeted invalidation.
//
// Each runner takes one untimed full-length warm-up pass, then `reps` timed
// passes alternate between the modes. Every BENCH_JSON line reports the
// median and interquartile range (IQR) over those passes plus the host's
// core count and whether the binary was optimized; ci.sh collects the lines
// into BENCH_interp.json. The exit code gates ARCHITECTURE invariant 11's
// performance half: non-zero when the median per-pass cached/fallback ratio
// drops below --min-speedup on either workload.
//
// Usage: interp_dispatch [--loops N] [--reps R] [--min-speedup X]
//   --loops        loop iterations per pass, both workloads (default 300000)
//   --reps         timed passes per mode (default and minimum 5)
//   --min-speedup  cached vs fallback gate on both workloads (default 1.0)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/bytecode/assembler.h"
#include "src/dex/builder.h"
#include "src/dex/io.h"
#include "src/runtime/runtime.h"

using namespace dexlego;
using bc::MethodAssembler;
using bc::Op;

namespace {

struct Workload {
  std::vector<uint8_t> dex_bytes;
  bool self_mod = false;
};

// Lbench/Hot; with a spin(n) loop touching every cached resolution kind.
Workload build_hot_loop(bool self_mod) {
  dex::DexBuilder b;
  const std::string cls = "Lbench/Hot;";
  uint32_t acc = b.intern_field(cls, "I", "acc");
  uint32_t fld = b.intern_field(cls, "I", "f");
  uint32_t step_m = b.intern_method(cls, "step", "I", {"I"});
  uint32_t vstep_m = b.intern_method(cls, "vstep", "I", {"I"});
  uint32_t bump_m = b.intern_method(cls, "bump", "V", {});
  uint32_t key = b.intern_string("bench/hot-key");

  b.start_class(cls);
  b.add_static_field("acc", "I", dex::DexBuilder::int_value(0));
  b.add_instance_field("f", "I");
  {
    MethodAssembler as(2, 1);  // static step(v1) -> v1 + 3
    as.add_lit8(0, 1, 3);
    as.return_value(0);
    b.add_direct_method("step", "I", {"I"}, as.finish());
  }
  {
    MethodAssembler as(3, 2);  // virtual vstep(this v1, n v2) -> n * 2
    as.mul_lit8(0, 2, 2);
    as.return_value(0);
    b.add_virtual_method("vstep", "I", {"I"}, as.finish());
  }
  if (self_mod) b.add_native_method("bump", "V", {});
  {
    // virtual spin(this v8, n v9): the measured loop.
    MethodAssembler as(10, 2);
    auto loop = as.make_label();
    auto done = as.make_label();
    as.const16(0, 0);  // i
    as.bind(loop);
    as.if_test(Op::kIfGe, 0, 9, done);
    as.const_string(1, static_cast<uint16_t>(key));
    as.sget(2, static_cast<uint16_t>(acc));
    as.const16(3, 7);  // self_mod: bump() rewrites this literal
    as.binop(Op::kAdd, 2, 2, 3);
    as.sput(2, static_cast<uint16_t>(acc));
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(step_m), {0});
    as.move_result(4);
    as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(vstep_m), {8, 4});
    as.move_result(4);
    // Dispatch-heavy unrolled stretch of cheap instructions, plus one
    // instance-field read feeding a call per iteration.
    for (int u = 0; u < 64; ++u) {
      as.binop(Op::kCmp, 6, 0, 9);       // i < n inside the body...
      as.if_testz(Op::kIfGez, 6, done);  // ...so this branch never takes
      as.const16(7, 5);
      as.move(6, 7);
    }
    as.iget(7, 8, static_cast<uint16_t>(fld));
    as.invoke(Op::kInvokeStatic, static_cast<uint16_t>(step_m), {7});
    as.move_result(7);
    if (self_mod) as.invoke(Op::kInvokeVirtual, static_cast<uint16_t>(bump_m), {8});
    as.add_lit8(0, 0, 1);
    as.goto_(loop);
    as.bind(done);
    as.sget(5, static_cast<uint16_t>(acc));
    as.return_value(5);
    b.add_virtual_method("spin", "I", {"I"}, as.finish());
  }

  Workload w;
  w.dex_bytes = dex::write_dex(std::move(b).build());
  w.self_mod = self_mod;
  return w;
}

struct Measurement {
  uint64_t steps = 0;
  double wall_ms = 0.0;
  double insns_per_sec() const {
    return wall_ms > 0.0 ? static_cast<double>(steps) / (wall_ms / 1e3) : 0.0;
  }
};

// One live runtime with the workload installed, ready to be measured
// repeatedly. Keeping all modes' runners alive and alternating
// measurements de-correlates machine noise from the mode (a noise burst
// hits every side instead of whichever mode ran last).
struct Runner {
  std::unique_ptr<rt::Runtime> runtime;
  rt::RtMethod* spin = nullptr;
  rt::Object* self = nullptr;

  Measurement measure(int loops) {
    uint64_t before = runtime->interp().steps();
    support::Stopwatch sw;
    rt::ExecOutcome out = runtime->interp().invoke(
        *spin, {rt::Value::Ref(self), rt::Value::Int(loops)});
    double wall = sw.elapsed_ms();
    if (!out.completed) {
      std::fprintf(stderr, "workload did not complete: %s\n",
                   out.abort_reason.c_str());
      std::exit(2);
    }
    return {runtime->interp().steps() - before, wall};
  }
};

Runner make_runner(const Workload& w, rt::DispatchMode mode) {
  rt::RuntimeConfig cfg;
  cfg.dispatch = mode;
  Runner r;
  r.runtime = std::make_unique<rt::Runtime>(cfg);
  rt::Runtime& runtime = *r.runtime;
  if (w.self_mod) {
    // Patches the loop's const/16 literal every call — an announced
    // self-modification the cached path must absorb without rebuilds.
    runtime.register_native(
        "Lbench/Hot;->bump", [](rt::NativeContext& ctx, std::span<rt::Value>) {
          rt::RtClass* cls = ctx.runtime.linker().find_loaded("Lbench/Hot;");
          if (cls == nullptr) return rt::Value::Null();
          rt::RtMethod* spin = cls->find_declared("spin");
          // const/16 v3 is patched every call; locate it by scanning for the
          // opcode with a=3 once, then patch its literal.
          static thread_local size_t lit_pc = 0;
          if (lit_pc == 0 && spin != nullptr && spin->code) {
            std::span<const uint16_t> insns(spin->code->insns);
            for (size_t pc = 0; pc < insns.size();) {
              bc::Insn insn = bc::decode_at(insns, pc);
              if (insn.op == bc::Op::kConst16 && insn.a == 3) {
                lit_pc = pc;
                break;
              }
              pc += insn.width;
            }
          }
          if (spin != nullptr && spin->code && lit_pc != 0) {
            uint16_t cur = spin->code->insns[lit_pc + 1];
            spin->patch_code_unit(lit_pc + 1, static_cast<uint16_t>(cur ^ 2));
          }
          return rt::Value::Null();
        });
  }
  const rt::DexImage& image =
      runtime.load_dex_buffer(w.dex_bytes, "bench:interp_dispatch");
  (void)image;
  rt::RtClass* cls = runtime.linker().ensure_initialized("Lbench/Hot;");
  if (cls == nullptr) {
    std::fprintf(stderr, "workload class failed to load\n");
    std::exit(2);
  }
  r.self =
      runtime.heap().new_instance(cls, cls->descriptor, cls->instance_slot_count);
  r.spin = cls->find_declared("spin");
  return r;
}

const char* mode_name(rt::DispatchMode mode) {
  return mode == rt::DispatchMode::kCached ? "cached" : "fallback";
}

constexpr rt::DispatchMode kModes[] = {rt::DispatchMode::kBaseline,
                                       rt::DispatchMode::kCached};

// Host tag carried by every BENCH_JSON line.
std::string host_fields() {
#if defined(__OPTIMIZE__)
  const char* optimized = "true";
#else
  const char* optimized = "false";
#endif
  return "\"host_cores\":" +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\"optimized\":" + optimized;
}

// Per-pass measurements of one workload, one series per mode (kModes
// order); passes alternate the modes so a noise burst hits both.
struct ModeSeries {
  std::vector<Measurement> passes[2];
};

ModeSeries measure_modes(Runner* runners, int loops, int reps) {
  // Untimed warm-up pass: builds caches, initializes classes and memoizes
  // resolutions so the timed passes measure steady state.
  for (int t = 0; t < 2; ++t) runners[t].measure(loops);
  ModeSeries series;
  for (int i = 0; i < reps; ++i) {
    for (int t = 0; t < 2; ++t) {
      series.passes[t].push_back(runners[t].measure(loops));
    }
  }
  return series;
}

void report(const char* workload, rt::DispatchMode mode, int loops, int reps,
            const std::vector<Measurement>& passes) {
  std::vector<double> walls, rates;
  for (const Measurement& m : passes) {
    walls.push_back(m.wall_ms);
    rates.push_back(m.insns_per_sec());
  }
  bench::Spread wall = bench::spread(walls);
  bench::Spread rate = bench::spread(rates);
  char wall_cell[32], rate_cell[48];
  std::snprintf(wall_cell, sizeof(wall_cell), "%.1f", wall.median);
  std::snprintf(rate_cell, sizeof(rate_cell), "%.0f (IQR %.0f)", rate.median,
                rate.iqr);
  bench::print_row({workload, mode_name(mode),
                    std::to_string(passes.front().steps), wall_cell,
                    rate_cell},
                   {12, 10, 12, 10, 24});
  std::printf(
      "BENCH_JSON {\"bench\":\"interp_dispatch\",\"workload\":\"%s\","
      "\"mode\":\"%s\",\"loops\":%d,\"reps\":%d,\"steps\":%llu,"
      "\"wall_ms\":%.3f,\"wall_ms_iqr\":%.3f,\"insns_per_sec\":%.0f,"
      "\"insns_per_sec_iqr\":%.0f,%s}\n",
      workload, mode_name(mode), loops, reps,
      static_cast<unsigned long long>(passes.front().steps), wall.median,
      wall.iqr, rate.median, rate.iqr, host_fields().c_str());
}

// Workload summary line + gate: the median over passes of the paired
// cached/fallback throughput ratio must reach min_speedup. Returns pass.
bool summarize(const char* workload, const ModeSeries& series,
               double min_speedup) {
  std::vector<double> ratios;
  for (size_t i = 0; i < series.passes[0].size(); ++i) {
    double fallback = series.passes[0][i].insns_per_sec();
    double cached = series.passes[1][i].insns_per_sec();
    ratios.push_back(fallback > 0.0 ? cached / fallback : 0.0);
  }
  bench::Spread ratio = bench::spread(ratios);
  bool pass = ratio.median >= min_speedup;
  std::printf("\n%s speedup: cached vs fallback %.2fx (IQR %.2f, min %.2f)\n",
              workload, ratio.median, ratio.iqr, min_speedup);
  std::printf(
      "BENCH_JSON {\"bench\":\"interp_dispatch\",\"workload\":\"%s\","
      "\"reps\":%zu,\"speedup_cached_vs_fallback\":%.3f,"
      "\"speedup_iqr\":%.3f,\"min_required\":%.2f,\"pass\":%s,%s}\n",
      workload, ratios.size(), ratio.median, ratio.iqr, min_speedup,
      pass ? "true" : "false", host_fields().c_str());
  if (!pass) {
    std::fprintf(stderr,
                 "FAIL: %s cached dispatch regressed: %.2fx fallback "
                 "(>= %.2f)\n",
                 workload, ratio.median, min_speedup);
  }
  return pass;
}

}  // namespace

int main(int argc, char** argv) {
  int loops = 300000;
  int reps = 5;
  double min_speedup = 1.0;  // cached vs fallback, both workloads
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--loops") == 0 && i + 1 < argc) {
      loops = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--min-speedup") == 0 && i + 1 < argc) {
      min_speedup = std::atof(argv[++i]);
    }
  }
  if (loops < 1) loops = 1;
  if (reps < 5) reps = 5;  // fewer passes cannot give a meaningful IQR

  bench::print_header("Interpreter dispatch (fallback vs cached)");
  bench::print_row({"Workload", "Mode", "Steps", "Wall ms", "Insns/sec"},
                   {12, 10, 12, 10, 24});

  // Both workloads run the same loop count: per-iteration patching makes a
  // self_mod pass slower than a hot_loop pass, never shorter.
  struct {
    const char* name;
    bool self_mod;
  } const kWorkloads[] = {{"hot_loop", false}, {"self_mod", true}};
  ModeSeries results[2];
  for (int w = 0; w < 2; ++w) {
    Workload workload = build_hot_loop(kWorkloads[w].self_mod);
    Runner runners[2];
    for (int t = 0; t < 2; ++t) runners[t] = make_runner(workload, kModes[t]);
    results[w] = measure_modes(runners, loops, reps);
    for (int t = 0; t < 2; ++t) {
      report(kWorkloads[w].name, kModes[t], loops, reps, results[w].passes[t]);
    }
  }

  bool ok = true;
  for (int w = 0; w < 2; ++w) {
    ok = summarize(kWorkloads[w].name, results[w], min_speedup) && ok;
  }
  return ok ? 0 : 1;
}
