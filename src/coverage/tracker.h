// JaCoCo-analog coverage tracker (Table VII granularities: class / method /
// line / branch / instruction). A RuntimeHooks implementation that records
// executed pcs and branch outcomes per method identity, then scores them
// against the app's static totals.
//
// Recording is per method, not per event: each method key ("class->name
// shorty") owns a dense executed-pc bitmap and two branch-side bits per pc,
// and the interpreter's RtMethod* is mapped to its entry once, so the string
// key is built once per method per runtime rather than once per instruction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/dex/dex.h"
#include "src/runtime/hooks.h"

namespace dexlego::coverage {

// Memo of a per-method value keyed by runtime method identity, with a
// last-method fast path. RtMethod pointers die with their runtime and a later
// runtime may reuse the addresses, so the owner clears the memo at every
// image load (kDexLoaded fires at each Runtime::install, before anything
// executes). Copies and moves start empty, and a move empties its source:
// a cached value may point into the owner's storage, and no copy may carry it
// into another owner.
template <typename V>
class RtMethodMemo {
 public:
  RtMethodMemo() = default;
  RtMethodMemo(const RtMethodMemo&) {}
  RtMethodMemo(RtMethodMemo&& other) noexcept { other.clear(); }
  RtMethodMemo& operator=(const RtMethodMemo&) {
    clear();
    return *this;
  }
  RtMethodMemo& operator=(RtMethodMemo&& other) noexcept {
    clear();
    other.clear();
    return *this;
  }

  // The value memoized for `method`, computed by `make()` on first use.
  template <typename Make>
  V& get(const rt::RtMethod& method, Make&& make) {
    if (&method == last_method_) return *last_value_;
    auto [it, inserted] = values_.try_emplace(&method);
    if (inserted) it->second = make();
    last_method_ = &method;
    last_value_ = &it->second;
    return it->second;
  }

  void clear() noexcept {
    values_.clear();
    last_method_ = nullptr;
    last_value_ = nullptr;
  }

 private:
  std::unordered_map<const rt::RtMethod*, V> values_;
  const rt::RtMethod* last_method_ = nullptr;
  V* last_value_ = nullptr;
};

class CoverageTracker : public rt::RuntimeHooks {
 public:
  uint32_t subscribed_events() const override {
    return rt::hook_mask(rt::HookEvent::kDexLoaded) |
           rt::hook_mask(rt::HookEvent::kInstruction) |
           rt::hook_mask(rt::HookEvent::kBranch);
  }
  void on_dex_loaded(const rt::DexImage& image) override;
  void on_instruction(rt::RtMethod& method, uint32_t dex_pc,
                      std::span<const uint16_t> code) override;
  void on_branch(rt::RtMethod& method, uint32_t dex_pc, bool taken) override;

  struct Report {
    size_t classes_total = 0, classes_covered = 0;
    size_t methods_total = 0, methods_covered = 0;
    size_t lines_total = 0, lines_covered = 0;
    size_t branches_total = 0, branches_covered = 0;  // branch *sides*
    size_t instructions_total = 0, instructions_covered = 0;

    double class_pct() const { return ratio(classes_covered, classes_total); }
    double method_pct() const { return ratio(methods_covered, methods_total); }
    double line_pct() const { return ratio(lines_covered, lines_total); }
    double branch_pct() const { return ratio(branches_covered, branches_total); }
    double instruction_pct() const {
      return ratio(instructions_covered, instructions_total);
    }

    bool operator==(const Report&) const = default;

   private:
    static double ratio(size_t a, size_t b) {
      return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
    }
  };

  // Scores recorded coverage against the app's static structure.
  Report report(const dex::DexFile& app) const;

  // Branch outcomes seen at one conditional branch.
  struct BranchSeen {
    bool taken = false;
    bool untaken = false;

    bool operator==(const BranchSeen&) const = default;
  };

  // The branch sites of one method in ascending pc order, iterated as
  // (pc, BranchSeen) pairs. Only pcs where a branch was observed appear.
  class BranchRange {
   public:
    class iterator {
     public:
      using value_type = std::pair<uint32_t, BranchSeen>;
      using difference_type = std::ptrdiff_t;

      iterator() = default;
      iterator(const std::vector<uint8_t>* sides, size_t pc)
          : sides_(sides), pc_(skip(pc)) {}
      value_type operator*() const;
      iterator& operator++() {
        pc_ = skip(pc_ + 1);
        return *this;
      }
      iterator operator++(int) {
        iterator old = *this;
        ++*this;
        return old;
      }
      bool operator==(const iterator& other) const { return pc_ == other.pc_; }

     private:
      size_t skip(size_t pc) const;
      const std::vector<uint8_t>* sides_ = nullptr;
      size_t pc_ = 0;
    };

    explicit BranchRange(const std::vector<uint8_t>* sides) : sides_(sides) {}
    iterator begin() const { return iterator(sides_, 0); }
    iterator end() const { return iterator(sides_, sides_->size()); }

   private:
    const std::vector<uint8_t>* sides_;
  };

  // Everything recorded for one method key.
  class MethodCoverage {
   public:
    bool executed() const;  // any pc ran
    bool executed(uint32_t pc) const;
    BranchSeen branch(uint32_t pc) const;
    BranchRange branches() const { return BranchRange(&sides_); }

   private:
    friend class CoverageTracker;
    static constexpr uint8_t kTaken = 1;
    static constexpr uint8_t kUntaken = 2;

    std::vector<uint64_t> pcs_;   // bit per executed dex_pc
    std::vector<uint8_t> sides_;  // per dex_pc: kTaken | kUntaken seen
  };

  // Branch sites observed in the method with this key; empty if none.
  BranchRange branches(std::string_view key) const;
  // Every method observed, ordered by key: lets the force engine enumerate
  // branch sites without knowing method keys up front.
  const std::map<std::string, MethodCoverage, std::less<>>& methods() const {
    return methods_;
  }

  static std::string method_key(const rt::RtMethod& method);
  static std::string method_key(const dex::DexFile& file, uint32_t method_ref);

  // Merge another tracker's observations (fuzz + force accumulation).
  void merge(const CoverageTracker& other);

 private:
  MethodCoverage& entry(const rt::RtMethod& method);

  std::map<std::string, MethodCoverage, std::less<>> methods_;
  RtMethodMemo<MethodCoverage*> by_method_;
};

}  // namespace dexlego::coverage
