#include "src/ir/lift.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/support/bytes.h"

namespace dexlego::ir {

namespace {

using bc::Insn;
using bc::Op;

// Decoded instruction with its pc, before block formation.
struct RawInst {
  uint32_t pc = 0;
  Insn insn;
};

struct Sweep {
  std::vector<RawInst> insts;
  std::set<uint32_t> inst_pcs;  // pcs that start a real instruction
};

Sweep decode_sweep(const dex::CodeItem& code) {
  Sweep sweep;
  std::span<const uint16_t> units(code.insns);
  size_t pc = 0;
  while (pc < units.size()) {
    Insn insn = bc::decode_at(units, pc);
    // Switch payload islands are data, not instructions: skip them whole.
    if (insn.op != Op::kPayload) {
      sweep.insts.push_back({static_cast<uint32_t>(pc), insn});
      sweep.inst_pcs.insert(static_cast<uint32_t>(pc));
    }
    pc += bc::consumed_units(insn);
  }
  return sweep;
}

// Control-flow successors of one instruction (fallthrough first, then
// branch targets in encoding order). Empty for return/throw.
std::vector<uint32_t> insn_successors(std::span<const uint16_t> units,
                                      const RawInst& ri) {
  std::vector<uint32_t> out;
  const Insn& insn = ri.insn;
  uint32_t next = ri.pc + insn.width;
  switch (insn.op) {
    case Op::kReturnVoid:
    case Op::kReturn:
    case Op::kThrow:
      break;
    case Op::kGoto:
      out.push_back(static_cast<uint32_t>(ri.pc + insn.off));
      break;
    case Op::kPackedSwitch: {
      out.push_back(next);
      bc::SwitchPayload payload = bc::read_switch_payload(units, ri.pc, insn);
      for (int32_t rel : payload.rel_targets) {
        out.push_back(static_cast<uint32_t>(ri.pc + rel));
      }
      break;
    }
    default:
      out.push_back(next);
      if (bc::is_conditional_branch(insn.op)) {
        out.push_back(static_cast<uint32_t>(ri.pc + insn.off));
      }
      break;
  }
  return out;
}

bool is_terminator(Op op) {
  return !bc::can_continue(op) || bc::is_conditional_branch(op) ||
         op == Op::kPackedSwitch;
}

TypeKind kind_from_descriptor(std::string_view desc) {
  if (desc.empty()) return TypeKind::kUnknown;
  switch (desc[0]) {
    case 'L':
    case '[':
      return TypeKind::kRef;
    case 'J':
    case 'D':
      return TypeKind::kWide;
    case 'V':
      return TypeKind::kUnknown;
    default:
      return TypeKind::kInt;
  }
}

// Internal 5-point lattice for inference: kUnknown is bottom, conflicts
// collapse back to kUnknown in the public TypeKind at the end.
TypeKind join_types(TypeKind a, TypeKind b, bool& conflict) {
  if (a == TypeKind::kUnknown) return b;
  if (b == TypeKind::kUnknown) return a;
  if (a == b) return a;
  conflict = true;
  return a;
}

class Lifter {
 public:
  explicit Lifter(const dex::CodeItem& code) : code_(code) {}

  Function run() {
    fn_.registers_size = code_.registers_size;
    fn_.ins_size = code_.ins_size;
    fn_.tries = code_.tries;

    Sweep sweep = decode_sweep(code_);
    build_blocks(sweep);
    mark_reachable();
    strip_unreachable_edges();
    idom_ = compute_idoms(fn_);
    for (Block& b : fn_.blocks) b.idom = idom_[b.id];
    place_phis();
    rename();
    return std::move(fn_);
  }

 private:
  void build_blocks(const Sweep& sweep) {
    std::span<const uint16_t> units(code_.insns);
    std::set<uint32_t> leaders;
    if (!sweep.insts.empty()) leaders.insert(sweep.insts.front().pc);
    auto leader_at = [&](uint32_t pc) {
      if (!sweep.inst_pcs.count(pc)) {
        throw support::ParseError("branch target " + std::to_string(pc) +
                                  " is not an instruction start");
      }
      leaders.insert(pc);
    };
    for (const RawInst& ri : sweep.insts) {
      uint32_t next = ri.pc + ri.insn.width;
      if (is_terminator(ri.insn.op)) {
        for (uint32_t succ : insn_successors(units, ri)) leader_at(succ);
        if (sweep.inst_pcs.count(next)) leaders.insert(next);
      }
    }
    // Exception semantics: every instruction covered by a try range forms
    // its own block with an edge to the handler, so handler joins see the
    // post-state of each covered instruction — exactly what the per-pc
    // bytecode taint engine merges.
    for (const dex::TryItem& t : fn_.tries) {
      leader_at(t.handler_pc);
      for (const RawInst& ri : sweep.insts) {
        if (ri.pc >= t.start_pc && ri.pc < t.end_pc) {
          leaders.insert(ri.pc);
          uint32_t next = ri.pc + ri.insn.width;
          if (sweep.inst_pcs.count(next)) leaders.insert(next);
        }
      }
    }

    // Synthetic empty entry block: holds the live-in definitions and keeps
    // the real pc-0 block free to receive back edges.
    fn_.blocks.emplace_back();
    fn_.blocks[0].id = 0;
    fn_.blocks[0].start_pc = 0;

    std::map<uint32_t, uint32_t> block_at;  // leader pc -> block id
    for (uint32_t pc : leaders) {
      Block b;
      b.id = static_cast<uint32_t>(fn_.blocks.size());
      b.start_pc = pc;
      block_at[pc] = b.id;
      fn_.blocks.push_back(std::move(b));
    }
    for (const RawInst& ri : sweep.insts) {
      auto it = block_at.upper_bound(ri.pc);
      --it;
      Inst inst;
      inst.src = ri.insn;
      inst.orig_pc = ri.pc;
      fn_.blocks[it->second].insts.push_back(std::move(inst));
    }

    auto add_edge = [&](uint32_t from, uint32_t to) {
      fn_.blocks[from].succs.push_back(to);
      fn_.blocks[to].preds.push_back(from);
    };
    if (fn_.blocks.size() > 1) add_edge(0, block_at.begin()->second);
    for (uint32_t id = 1; id < fn_.blocks.size(); ++id) {
      Block& b = fn_.blocks[id];
      if (b.insts.empty()) continue;  // trailing leader with no instructions
      const Inst& last = b.insts.back();
      RawInst ri{last.orig_pc, last.src};
      if (is_terminator(last.src.op)) {
        for (uint32_t succ : insn_successors(units, ri)) {
          auto it = block_at.find(succ);
          if (it == block_at.end()) {
            throw support::ParseError("branch target " + std::to_string(succ) +
                                      " has no block");
          }
          add_edge(id, it->second);
        }
      } else {
        uint32_t next = last.orig_pc + last.src.width;
        auto it = block_at.find(next);
        if (it != block_at.end()) add_edge(id, it->second);
        // else: falls off the end or into a payload — verifier territory;
        // the block simply has no normal successor here.
      }
      // Handler edges for covered instructions (exactly one per block
      // thanks to the per-instruction try split above).
      for (const dex::TryItem& t : fn_.tries) {
        for (const Inst& inst : b.insts) {
          if (inst.orig_pc >= t.start_pc && inst.orig_pc < t.end_pc) {
            add_edge(id, block_at.at(t.handler_pc));
            break;
          }
        }
      }
    }
  }

  void mark_reachable() {
    for (Block& b : fn_.blocks) b.reachable = false;
    std::vector<uint32_t> stack{0};
    if (fn_.blocks.empty()) return;
    fn_.blocks[0].reachable = true;
    while (!stack.empty()) {
      uint32_t id = stack.back();
      stack.pop_back();
      for (uint32_t s : fn_.blocks[id].succs) {
        if (!fn_.blocks[s].reachable) {
          fn_.blocks[s].reachable = true;
          stack.push_back(s);
        }
      }
    }
  }

  // Unreachable blocks keep their instructions but leave the CFG entirely: their edges would otherwise force phi operands that no
  // reachable definition can supply.
  void strip_unreachable_edges() {
    for (Block& b : fn_.blocks) {
      if (b.reachable) {
        std::erase_if(b.preds,
                      [&](uint32_t p) { return !fn_.blocks[p].reachable; });
        std::erase_if(b.succs,
                      [&](uint32_t s) { return !fn_.blocks[s].reachable; });
      } else {
        b.preds.clear();
        b.succs.clear();
      }
    }
  }

  void place_phis() {
    // Dominance frontiers (Cooper–Harvey–Kennedy "runner" formulation).
    std::vector<std::set<uint32_t>> frontier(fn_.blocks.size());
    for (const Block& b : fn_.blocks) {
      if (!b.reachable || b.preds.size() < 2) continue;
      for (uint32_t p : b.preds) {
        for (uint32_t runner = p;
             runner != kNoBlock && runner != idom_[b.id];
             runner = idom_[runner]) {
          frontier[runner].insert(b.id);
        }
      }
    }

    // Definition sites per SSA register (frame registers + invoke result).
    // The synthetic entry defines everything live-in.
    std::vector<std::set<uint32_t>> def_blocks(fn_.ssa_regs());
    for (uint16_t r = 0; r < fn_.ssa_regs(); ++r) def_blocks[r].insert(0);
    for (const Block& b : fn_.blocks) {
      if (!b.reachable) continue;
      for (const Inst& inst : b.insts) {
        if (auto w = insn_written_reg(inst.src)) def_blocks[*w].insert(b.id);
        if (writes_result(inst.src)) def_blocks[fn_.result_reg()].insert(b.id);
      }
    }

    for (uint16_t r = 0; r < fn_.ssa_regs(); ++r) {
      if (def_blocks[r].size() < 2) continue;  // entry-only: no joins needed
      std::set<uint32_t> has_phi;
      std::vector<uint32_t> work(def_blocks[r].begin(), def_blocks[r].end());
      while (!work.empty()) {
        uint32_t d = work.back();
        work.pop_back();
        for (uint32_t f : frontier[d]) {
          if (has_phi.insert(f).second) {
            Phi phi;
            phi.reg = r;
            phi.args.assign(fn_.blocks[f].preds.size(), kNoValue);
            fn_.blocks[f].phis.push_back(std::move(phi));
            if (!def_blocks[r].count(f)) work.push_back(f);
          }
        }
      }
    }
  }

  void rename() {
    std::vector<std::vector<ValueId>> stack(fn_.ssa_regs());
    // Live-in definitions, owned by the synthetic entry.
    for (uint16_t r = 0; r < fn_.ssa_regs(); ++r) {
      stack[r].push_back(fn_.new_value(TypeKind::kUnknown, r, 0, kEntryDef));
    }

    std::vector<std::vector<uint32_t>> children(fn_.blocks.size());
    for (const Block& b : fn_.blocks) {
      if (b.reachable && b.id != 0 && idom_[b.id] != kNoBlock) {
        children[idom_[b.id]].push_back(b.id);
      }
    }

    struct Frame {
      uint32_t block;
      bool entered = false;
      std::vector<uint16_t> pushed;  // regs to pop on exit
    };
    std::vector<Frame> dfs;
    dfs.push_back({0, false, {}});
    std::vector<uint8_t> regs_buf;
    while (!dfs.empty()) {
      Frame& frame = dfs.back();
      if (frame.entered) {
        for (auto it = frame.pushed.rbegin(); it != frame.pushed.rend(); ++it) {
          stack[*it].pop_back();
        }
        dfs.pop_back();
        continue;
      }
      frame.entered = true;
      Block& b = fn_.blocks[frame.block];

      for (Phi& phi : b.phis) {
        phi.dest = fn_.new_value(TypeKind::kUnknown, phi.reg, b.id, kPhiDef);
        stack[phi.reg].push_back(phi.dest);
        frame.pushed.push_back(phi.reg);
      }
      for (size_t i = 0; i < b.insts.size(); ++i) {
        Inst& inst = b.insts[i];
        if (reads_result(inst.src)) {
          inst.uses.push_back(stack[fn_.result_reg()].back());
        } else {
          insn_read_regs(inst.src, regs_buf);
          for (uint8_t r : regs_buf) {
            if (r >= fn_.registers_size) {
              throw support::ParseError("register v" + std::to_string(r) +
                                        " out of frame");
            }
            inst.uses.push_back(stack[r].back());
          }
        }
        uint16_t def_reg;
        bool has_def = false;
        if (auto w = insn_written_reg(inst.src)) {
          if (*w >= fn_.registers_size) {
            throw support::ParseError("register v" + std::to_string(*w) +
                                      " out of frame");
          }
          def_reg = *w;
          has_def = true;
        } else if (writes_result(inst.src)) {
          def_reg = fn_.result_reg();
          has_def = true;
        }
        if (has_def) {
          inst.def = fn_.new_value(TypeKind::kUnknown, def_reg, b.id,
                                   static_cast<int32_t>(i));
          stack[def_reg].push_back(inst.def);
          frame.pushed.push_back(def_reg);
        }
      }
      for (uint32_t s : b.succs) {
        Block& succ = fn_.blocks[s];
        for (Phi& phi : succ.phis) {
          for (size_t j = 0; j < succ.preds.size(); ++j) {
            if (succ.preds[j] == b.id) phi.args[j] = stack[phi.reg].back();
          }
        }
      }
      for (auto it = children[b.id].rbegin(); it != children[b.id].rend();
           ++it) {
        dfs.push_back({*it, false, {}});
      }
    }
  }

  const dex::CodeItem& code_;
  Function fn_;
  std::vector<uint32_t> idom_;
};

// Seeds and propagates TypeKind facts over the SSA graph. Conflicting
// evidence collapses to kUnknown (the analysis treats that as "any").
void infer_types(Function& fn, const dex::DexFile* file,
                 const dex::MethodDef* method) {
  // Seed argument registers from the method shorty. Arguments occupy the
  // trailing ins_size registers; instance methods pass `this` first.
  if (file != nullptr && method != nullptr) {
    const dex::MethodRef& ref = file->methods.at(method->method_ref);
    const dex::Proto& proto = file->protos.at(ref.proto);
    std::vector<TypeKind> arg_kinds;
    if ((method->access_flags & dex::kAccStatic) == 0) {
      arg_kinds.push_back(TypeKind::kRef);  // this
    }
    for (uint32_t p : proto.param_types) {
      arg_kinds.push_back(kind_from_descriptor(file->type_descriptor(p)));
    }
    uint16_t base = static_cast<uint16_t>(fn.registers_size - fn.ins_size);
    for (ValueId v = 0; v < fn.values.size(); ++v) {
      Value& val = fn.values[v];
      if (val.def_inst != kEntryDef || val.origin_reg < base ||
          val.origin_reg >= fn.registers_size) {
        continue;
      }
      size_t arg_index = static_cast<size_t>(val.origin_reg - base);
      if (arg_index < arg_kinds.size()) val.type = arg_kinds[arg_index];
    }
  }

  // Structural seeds + propagation worklist over moves, phis, move-result.
  bool changed = true;
  while (changed) {
    changed = false;
    for (Block& b : fn.blocks) {
      if (!b.reachable) continue;
      for (Phi& phi : b.phis) {
        TypeKind t = TypeKind::kUnknown;
        bool conflict = false;
        for (ValueId a : phi.args) {
          if (a != kNoValue) t = join_types(t, fn.values[a].type, conflict);
        }
        if (conflict) t = TypeKind::kUnknown;
        if (!conflict && t != TypeKind::kUnknown &&
            fn.values[phi.dest].type != t) {
          fn.values[phi.dest].type = t;
          changed = true;
        }
      }
      for (Inst& inst : b.insts) {
        if (inst.def == kNoValue) continue;
        TypeKind t = TypeKind::kUnknown;
        switch (inst.src.op) {
          case Op::kConst16:
          case Op::kConst32:
          case Op::kAdd:
          case Op::kSub:
          case Op::kMul:
          case Op::kDiv:
          case Op::kRem:
          case Op::kAnd:
          case Op::kOr:
          case Op::kXor:
          case Op::kShl:
          case Op::kShr:
          case Op::kCmp:
          case Op::kAddLit8:
          case Op::kMulLit8:
          case Op::kNeg:
          case Op::kNot:
          case Op::kArrayLength:
          case Op::kInstanceOf:
            t = TypeKind::kInt;
            break;
          case Op::kConstWide:
            t = TypeKind::kWide;
            break;
          case Op::kConstString:
          case Op::kConstNull:
          case Op::kNewInstance:
          case Op::kNewArray:
          case Op::kMoveException:
            t = TypeKind::kRef;
            break;
          case Op::kMove:
          case Op::kMoveResult:
            if (!inst.uses.empty()) t = fn.values[inst.uses[0]].type;
            break;
          case Op::kIget:
          case Op::kSget:
            if (file != nullptr && inst.src.idx < file->fields.size()) {
              t = kind_from_descriptor(
                  file->type_descriptor(file->fields[inst.src.idx].type));
            }
            break;
          case Op::kInvokeVirtual:
          case Op::kInvokeDirect:
          case Op::kInvokeStatic:
            if (file != nullptr && inst.src.idx < file->methods.size()) {
              const dex::Proto& p =
                  file->protos.at(file->methods[inst.src.idx].proto);
              t = kind_from_descriptor(file->type_descriptor(p.return_type));
            }
            break;
          default:
            break;
        }
        if (t != TypeKind::kUnknown && fn.values[inst.def].type != t) {
          fn.values[inst.def].type = t;
          changed = true;
        }
      }
    }
  }
}

}  // namespace

Function lift_code(const dex::CodeItem& code) {
  Function fn = Lifter(code).run();
  infer_types(fn, nullptr, nullptr);
  return fn;
}

Function lift_method(const dex::DexFile& file, const dex::MethodDef& method) {
  if (!method.code.has_value()) {
    throw support::ParseError("lift_method: method has no code");
  }
  Function fn = Lifter(*method.code).run();
  infer_types(fn, &file, &method);
  return fn;
}

}  // namespace dexlego::ir
