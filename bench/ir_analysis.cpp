// IR subsystem throughput: SSA lift rate over the DroidBench corpus and
// taint wall time of the bytecode engine vs the SSA engine across all three
// tool presets.
//
//   ir_analysis [--repeat N] [--baseline-methods-per-sec R]
//               [--max-regression F]
//
// Each line prefixed BENCH_JSON is machine-readable (one JSON object per
// line); ci.sh collects them into BENCH_interp.json and gates the lift
// throughput against bench/ir_baseline.json — a drop of more than
// --max-regression below --baseline-methods-per-sec exits non-zero.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/analysis/static_taint.h"
#include "src/benchsuite/droidbench.h"
#include "src/dex/io.h"
#include "src/ir/lift.h"

namespace {

using namespace dexlego;

double parse_double(const char* text, const char* flag) {
  char* end = nullptr;
  double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || value < 0.0) {
    std::fprintf(stderr, "%s: invalid value '%s'\n", flag, text);
    std::exit(2);
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  int repeat = 20;
  double baseline_rate = 0.0;
  double max_regression = 0.10;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--repeat") {
      repeat = std::atoi(next());
      if (repeat < 1) repeat = 1;
    } else if (arg == "--baseline-methods-per-sec") {
      baseline_rate = parse_double(next(), "--baseline-methods-per-sec");
    } else if (arg == "--max-regression") {
      max_regression = parse_double(next(), "--max-regression");
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return 2;
    }
  }

  const suite::DroidBench& corpus = suite::build_droidbench();
  std::vector<dex::DexFile> files;
  files.reserve(corpus.samples.size());
  for (const suite::Sample& sample : corpus.samples) {
    files.push_back(dex::read_dex(sample.apk.classes()));
  }

  // --- lift throughput -----------------------------------------------------
  size_t methods = 0;
  for (const dex::DexFile& file : files) {
    for (const dex::ClassDef& cls : file.classes) {
      for (const dex::MethodDef& m : cls.direct_methods) {
        if (m.code.has_value()) ++methods;
      }
      for (const dex::MethodDef& m : cls.virtual_methods) {
        if (m.code.has_value()) ++methods;
      }
    }
  }
  bench::Stopwatch lift_clock;
  size_t lifts = 0;
  for (int r = 0; r < repeat; ++r) {
    for (const dex::DexFile& file : files) {
      for (const dex::ClassDef& cls : file.classes) {
        for (const dex::MethodDef& m : cls.direct_methods) {
          if (!m.code.has_value()) continue;
          ir::Function fn = ir::lift_method(file, m);
          ++lifts;
        }
        for (const dex::MethodDef& m : cls.virtual_methods) {
          if (!m.code.has_value()) continue;
          ir::Function fn = ir::lift_method(file, m);
          ++lifts;
        }
      }
    }
  }
  double lift_ms = lift_clock.elapsed_ms();
  double methods_per_sec =
      lift_ms > 0.0 ? static_cast<double>(lifts) / (lift_ms / 1000.0) : 0.0;

  // --- taint wall: bytecode engine vs SSA engine ---------------------------
  std::vector<analysis::ToolConfig> configs = {analysis::flowdroid_config(),
                                               analysis::droidsafe_config(),
                                               analysis::horndroid_config()};
  auto taint_wall = [&](analysis::TaintEngine engine) {
    bench::Stopwatch clock;
    size_t flows = 0;
    for (analysis::ToolConfig cfg : configs) {
      cfg.engine = engine;
      for (const dex::DexFile& file : files) {
        analysis::StaticAnalyzer analyzer(cfg);
        flows += analyzer.analyze(file).flows.size();
      }
    }
    return std::pair<double, size_t>(clock.elapsed_ms(), flows);
  };
  auto [bytecode_ms, bytecode_flows] = taint_wall(analysis::TaintEngine::kBytecode);
  auto [ssa_ms, ssa_flows] = taint_wall(analysis::TaintEngine::kSsa);

  bench::print_header("IR analysis throughput (DroidBench corpus)");
  std::printf("lift:  %zu methods x %d repeats in %.1f ms -> %.0f methods/sec\n",
              methods, repeat, lift_ms, methods_per_sec);
  std::printf(
      "taint: bytecode engine %.1f ms (%zu flows) | ssa engine %.1f ms "
      "(%zu flows) across %zu samples x %zu presets\n",
      bytecode_ms, bytecode_flows, ssa_ms, ssa_flows, files.size(),
      configs.size());

  std::printf(
      "BENCH_JSON {\"bench\":\"ir_analysis\",\"samples\":%zu,\"methods\":%zu,"
      "\"lifts\":%zu,\"lift_wall_ms\":%.2f,\"methods_per_sec_lifted\":%.1f,"
      "\"taint_bytecode_ms\":%.2f,\"taint_ssa_ms\":%.2f,"
      "\"taint_bytecode_flows\":%zu,\"taint_ssa_flows\":%zu}\n",
      files.size(), methods, lifts, lift_ms, methods_per_sec, bytecode_ms,
      ssa_ms, bytecode_flows, ssa_flows);

  // The SSA engine may only ever remove flows relative to the bytecode
  // engine (constant-branch pruning); more flows means a precision bug.
  if (ssa_flows > bytecode_flows) {
    std::fprintf(stderr,
                 "FAIL: ssa engine reported %zu flows vs bytecode %zu\n",
                 ssa_flows, bytecode_flows);
    return 1;
  }
  if (baseline_rate > 0.0) {
    double floor = baseline_rate * (1.0 - max_regression);
    if (methods_per_sec < floor) {
      std::fprintf(stderr,
                   "FAIL: lift throughput %.0f methods/sec below baseline "
                   "%.0f - %.0f%% = %.0f\n",
                   methods_per_sec, baseline_rate, max_regression * 100.0,
                   floor);
      return 1;
    }
    std::printf("lift throughput gate passed (%.0f >= %.0f methods/sec)\n",
                methods_per_sec, floor);
  }
  return 0;
}
