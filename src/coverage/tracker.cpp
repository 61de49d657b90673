#include "src/coverage/tracker.h"

#include <algorithm>

#include "src/bytecode/insn.h"
#include "src/support/bytes.h"

namespace dexlego::coverage {

std::string CoverageTracker::method_key(const rt::RtMethod& method) {
  return (method.declaring != nullptr ? method.declaring->descriptor : "?") +
         "->" + method.name + method.shorty;
}

std::string CoverageTracker::method_key(const dex::DexFile& file,
                                        uint32_t method_ref) {
  const dex::MethodRef& ref = file.methods.at(method_ref);
  return file.type_descriptor(ref.class_type) + "->" + file.string_at(ref.name) +
         file.proto_shorty(ref.proto);
}

CoverageTracker::BranchRange::iterator::value_type
CoverageTracker::BranchRange::iterator::operator*() const {
  uint8_t sides = (*sides_)[pc_];
  return {static_cast<uint32_t>(pc_),
          BranchSeen{(sides & MethodCoverage::kTaken) != 0,
                     (sides & MethodCoverage::kUntaken) != 0}};
}

size_t CoverageTracker::BranchRange::iterator::skip(size_t pc) const {
  if (sides_ == nullptr) return pc;
  while (pc < sides_->size() && (*sides_)[pc] == 0) ++pc;
  return pc;
}

bool CoverageTracker::MethodCoverage::executed() const {
  return std::any_of(pcs_.begin(), pcs_.end(),
                     [](uint64_t word) { return word != 0; });
}

bool CoverageTracker::MethodCoverage::executed(uint32_t pc) const {
  size_t word = pc / 64;
  return word < pcs_.size() && ((pcs_[word] >> (pc % 64)) & 1) != 0;
}

CoverageTracker::BranchSeen CoverageTracker::MethodCoverage::branch(
    uint32_t pc) const {
  uint8_t sides = pc < sides_.size() ? sides_[pc] : 0;
  return BranchSeen{(sides & kTaken) != 0, (sides & kUntaken) != 0};
}

void CoverageTracker::on_dex_loaded(const rt::DexImage& image) {
  (void)image;
  by_method_.clear();
}

CoverageTracker::MethodCoverage& CoverageTracker::entry(
    const rt::RtMethod& method) {
  return *by_method_.get(method, [&] { return &methods_[method_key(method)]; });
}

void CoverageTracker::on_instruction(rt::RtMethod& method, uint32_t dex_pc,
                                     std::span<const uint16_t> code) {
  std::vector<uint64_t>& pcs = entry(method).pcs_;
  size_t word = dex_pc / 64;
  // Sized for the current array; self-modifying code may grow it later.
  if (word >= pcs.size()) pcs.resize(std::max(word + 1, (code.size() + 63) / 64));
  pcs[word] |= uint64_t{1} << (dex_pc % 64);
}

void CoverageTracker::on_branch(rt::RtMethod& method, uint32_t dex_pc,
                                bool taken) {
  std::vector<uint8_t>& sides = entry(method).sides_;
  if (dex_pc >= sides.size()) sides.resize(size_t{dex_pc} + 1);
  sides[dex_pc] |= taken ? MethodCoverage::kTaken : MethodCoverage::kUntaken;
}

CoverageTracker::BranchRange CoverageTracker::branches(
    std::string_view key) const {
  static const std::vector<uint8_t> kNoSites;
  auto it = methods_.find(key);
  return BranchRange(it == methods_.end() ? &kNoSites : &it->second.sides_);
}

void CoverageTracker::merge(const CoverageTracker& other) {
  for (const auto& [key, theirs] : other.methods_) {
    MethodCoverage& mine = methods_[key];
    if (mine.pcs_.size() < theirs.pcs_.size()) mine.pcs_.resize(theirs.pcs_.size());
    for (size_t i = 0; i < theirs.pcs_.size(); ++i) mine.pcs_[i] |= theirs.pcs_[i];
    if (mine.sides_.size() < theirs.sides_.size()) {
      mine.sides_.resize(theirs.sides_.size());
    }
    for (size_t i = 0; i < theirs.sides_.size(); ++i) {
      mine.sides_[i] |= theirs.sides_[i];
    }
  }
}

CoverageTracker::Report CoverageTracker::report(const dex::DexFile& app) const {
  Report report;
  std::vector<uint32_t> lines_hit;
  std::vector<uint32_t> lines_all;
  auto count_distinct = [](std::vector<uint32_t>& lines) {
    std::sort(lines.begin(), lines.end());
    return static_cast<size_t>(std::unique(lines.begin(), lines.end()) -
                               lines.begin());
  };
  for (const dex::ClassDef& cls : app.classes) {
    bool class_covered = false;
    bool class_has_code = false;
    for (const auto* methods : {&cls.direct_methods, &cls.virtual_methods}) {
      for (const dex::MethodDef& m : *methods) {
        if (!m.code) continue;
        class_has_code = true;
        ++report.methods_total;
        auto found = methods_.find(method_key(app, m.method_ref));
        const MethodCoverage* executed =
            found == methods_.end() ? nullptr : &found->second;
        if (executed != nullptr && executed->executed()) {
          ++report.methods_covered;
          class_covered = true;
        }

        // An instruction's line is that of the last line entry at or before
        // its pc, in table order. Instructions ascend by pc, so a sorted
        // table is consumed in one pass; an unsorted one (or an array too
        // long for 16-bit pcs to ascend) is scanned per instruction.
        std::span<const uint16_t> insns(m.code->insns);
        const std::vector<dex::LineEntry>& table = m.code->lines;
        bool sorted = insns.size() <= 0x10000 &&
                      std::is_sorted(table.begin(), table.end(),
                                     [](const dex::LineEntry& a,
                                        const dex::LineEntry& b) {
                                       return a.pc < b.pc;
                                     });
        size_t next_line = 0;
        uint32_t line = 0;
        auto line_of = [&](uint16_t pc) -> uint32_t {
          if (sorted) {
            for (; next_line < table.size() && table[next_line].pc <= pc;
                 ++next_line) {
              line = table[next_line].line;
            }
            return line;
          }
          uint32_t scanned = 0;
          for (const dex::LineEntry& e : table) {
            if (e.pc <= pc) scanned = e.line;
          }
          return scanned;
        };

        // Instructions and branch sides from the static code.
        lines_hit.clear();
        lines_all.clear();
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
            uint32_t pc_line = line_of(static_cast<uint16_t>(pc));
            if (pc_line != 0) lines_all.push_back(pc_line);
            if (executed != nullptr &&
                executed->executed(static_cast<uint32_t>(pc))) {
              ++report.instructions_covered;
              if (pc_line != 0) lines_hit.push_back(pc_line);
            }
            if (bc::is_conditional_branch(insn.op)) {
              report.branches_total += 2;
              if (executed != nullptr) {
                BranchSeen seen = executed->branch(static_cast<uint32_t>(pc));
                report.branches_covered +=
                    (seen.taken ? 1 : 0) + (seen.untaken ? 1 : 0);
              }
            }
          }
          pc += insn.width;
        }
        report.lines_total += count_distinct(lines_all);
        report.lines_covered += count_distinct(lines_hit);
      }
    }
    if (class_has_code) {
      ++report.classes_total;
      if (class_covered) ++report.classes_covered;
    }
  }
  return report;
}

}  // namespace dexlego::coverage
