// Typed SSA intermediate representation for LDEX method bodies, built for
// analysis only. Each IR instruction wraps its decoded bc::Insn and links
// operands to SSA values; basic blocks carry phi nodes whose operands align
// with the predecessor list. The lifter (lift.h) builds this form from raw
// code units; the IR is never lowered back — the SSA taint engine
// (src/analysis/ssa_taint.h) is its consumer.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/bytecode/insn.h"
#include "src/dex/dex.h"

namespace dexlego::ir {

using ValueId = uint32_t;
inline constexpr ValueId kNoValue = 0xffffffffu;
inline constexpr uint32_t kNoBlock = 0xffffffffu;

// Instruction index markers for Value::def_inst.
inline constexpr int32_t kPhiDef = -1;    // defined by a phi node
inline constexpr int32_t kEntryDef = -2;  // live-in at function entry

// Coarse type lattice inferred from opcode formats and method shorties.
// kUnknown doubles as bottom (never seen) and top (conflicting evidence);
// the taint engine only needs the ref/int split, so this stays coarse.
enum class TypeKind : uint8_t { kUnknown, kInt, kWide, kRef };

const char* type_name(TypeKind kind);

// One SSA value: a single static assignment of an original frame register,
// or of the invoke-result pseudo register (origin_reg == registers_size).
struct Value {
  TypeKind type = TypeKind::kUnknown;
  int32_t origin_reg = -1;     // frame register this value versions
  uint32_t def_block = kNoBlock;
  int32_t def_inst = kEntryDef;  // index into Block::insts, or kPhiDef/kEntryDef
};

// Phi node: dest merges one incoming value per predecessor edge, in
// Block::preds order. `reg` records the original register being joined.
struct Phi {
  ValueId dest = kNoValue;
  uint16_t reg = 0;
  std::vector<ValueId> args;  // aligned with the owning block's preds
};

// IR instruction: the decoded source instruction plus SSA operand links.
// `uses` aligns with insn_read_regs(src); `def` is set when the opcode
// writes a register (insn_written_reg) or produces an invoke result.
struct Inst {
  bc::Insn src;
  uint32_t orig_pc = 0;  // code-unit pc in the source body
  ValueId def = kNoValue;
  std::vector<ValueId> uses;
};

// Basic block. Blocks are kept in ascending start_pc order ("layout order"),
// so walking them in order visits the source instructions in sequence.
struct Block {
  uint32_t id = 0;
  uint32_t start_pc = 0;
  bool reachable = true;  // false: raw block, no SSA links, no CFG edges
  std::vector<Phi> phis;
  std::vector<Inst> insts;
  std::vector<uint32_t> preds;
  std::vector<uint32_t> succs;
  uint32_t idom = kNoBlock;  // immediate dominator (reachable blocks only)
};

// A whole method body in SSA form.
struct Function {
  uint16_t registers_size = 0;  // original frame size
  uint16_t ins_size = 0;
  std::vector<Block> blocks;  // blocks[0] is the entry; layout order
  std::vector<Value> values;
  std::vector<dex::TryItem> tries;  // source coordinates

  // Pseudo-register modelling the interpreter's "last invoke result" slot:
  // invokes define it, kMoveResult reads it. Never appears in encodings.
  uint16_t result_reg() const { return registers_size; }
  uint16_t ssa_regs() const { return static_cast<uint16_t>(registers_size + 1); }

  Value& value(ValueId id) { return values[id]; }
  const Value& value(ValueId id) const { return values[id]; }
  ValueId new_value(TypeKind type, int32_t origin_reg, uint32_t def_block,
                    int32_t def_inst);
};

// Frame registers read by an instruction, in a fixed per-opcode order that
// Inst::uses must follow. The invoke-result pseudo register is not included
// (the lifter links it explicitly for kMoveResult).
void insn_read_regs(const bc::Insn& insn, std::vector<uint8_t>& out);
// Frame register written, if any. Invokes return nullopt (they define the
// result pseudo register instead).
std::optional<uint8_t> insn_written_reg(const bc::Insn& insn);
// True when kMoveResult consumes the pseudo result register.
inline bool reads_result(const bc::Insn& insn) {
  return insn.op == bc::Op::kMoveResult;
}
// True when the opcode defines the pseudo result register.
inline bool writes_result(const bc::Insn& insn) { return bc::is_invoke(insn.op); }

// Recomputes immediate dominators of reachable blocks from the CFG
// (iterative Cooper–Harvey–Kennedy). Returns idom per block id, kNoBlock
// for the entry and for unreachable blocks. Shared by lift and verify.
std::vector<uint32_t> compute_idoms(const Function& fn);

// True when block a dominates block b under the given idom vector.
bool dominates(const std::vector<uint32_t>& idom, uint32_t a, uint32_t b);

// SSA well-formedness check: (1) every value has exactly one definition and
// its def_block/def_inst coordinates are accurate, (2) each phi has exactly
// one operand per predecessor, (3) every use is dominated by its definition.
// Returns human-readable violations; empty means well-formed.
std::vector<std::string> verify_function(const Function& fn);

// Textual dump ("%3:int = add %1, %2") for debugging and golden tests.
std::string to_string(const Function& fn);

}  // namespace dexlego::ir
