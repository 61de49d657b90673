// DexLego end-to-end pipeline (paper Fig. 1): execute the target APK inside
// the instrumented runtime (just-in-time collection), optionally under a
// caller-provided driver (fuzzer, force execution, simple launch), then
// reassemble the collection into a new DEX and splice it back into the
// original APK. The revealed APK is what gets handed to static analysis.
//
// In process, reveal() is collect() followed by reassemble_collection(): it
// encodes the collection once into the five collection files (their sizes
// are Table VI's metric) and reassembles straight from the in-memory
// collection. The batch pipeline calls the same two halves per job, with a
// merged collection in between for force execution. reassemble_files() is
// the paper's offline phase: it decodes the files and runs the same
// reassemble/verify/write tail, and the tests hold it as the oracle of the
// in-memory path.
#pragma once

#include <functional>
#include <string>

#include "src/core/collector.h"
#include "src/core/files.h"
#include "src/core/reassembler.h"
#include "src/dex/archive.h"
#include "src/runtime/runtime.h"

namespace dexlego::core {

struct DexLegoOptions {
  Collector::Options collector;
  ReassembleOptions reassemble;
  rt::RuntimeConfig runtime;
  // Called on each fresh runtime before execution — registers the sample's
  // native methods (JNI analog) and any packer natives.
  std::function<void(rt::Runtime&)> configure_runtime;
  // Exercises the app. Default: launch + fire every registered click handler.
  // Called once per run; `run_index` supports multi-run drivers.
  std::function<void(rt::Runtime&, int run_index)> driver;
  int runs = 1;  // fresh runtime per run; trees accumulate across runs
};

struct RevealResult {
  dex::Apk revealed_apk;          // original APK with the DEX replaced
  CollectionFiles files;          // the five collection files (Table VI sizes)
  ReassembleStats stats;
  CollectionOutput collection;    // what was reassembled, for inspection
  bool verified = false;          // reassembled DEX passed the full verifier
  std::string verify_errors;
};

class DexLego {
 public:
  explicit DexLego(DexLegoOptions options = {}) : options_(std::move(options)) {}

  // Runs collection + reassembling on the APK: collect(), encode the
  // collection into `files`, then reassemble_collection(). The result equals
  // reassemble_files(encode_collection(collect(apk)), apk) byte for byte.
  RevealResult reveal(const dex::Apk& apk);

  // Online half only: `options.runs` driver executions against fresh
  // runtimes with a collector attached, returning the raw collection.
  // The batch pipeline calls this directly for its per-plan-unit collection
  // runs.
  static CollectionOutput collect(const dex::Apk& apk,
                                  const DexLegoOptions& options);

  // Offline half from memory: reassembles `collection`, verifies the DEX and
  // splices it into a copy of `original` (manifest and assets kept). The
  // collection moves into the result; `files` is left empty.
  static RevealResult reassemble_collection(
      CollectionOutput collection, const dex::Apk& original,
      const ReassembleOptions& options = {});

  // Offline half from the files: decodes them, then reassemble_collection().
  // Works only on the files, mirroring the paper's online/offline split.
  static RevealResult reassemble_files(const CollectionFiles& files,
                                       const dex::Apk& original,
                                       const ReassembleOptions& options = {});

 private:
  DexLegoOptions options_;
};

// The default driver: launch the entry activity, then fire every click
// handler once, then the remaining lifecycle callbacks.
void default_driver(rt::Runtime& rt, int run_index);

}  // namespace dexlego::core
