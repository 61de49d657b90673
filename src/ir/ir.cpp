#include "src/ir/ir.h"

#include <algorithm>
#include <sstream>

namespace dexlego::ir {

using bc::Insn;
using bc::Op;

const char* type_name(TypeKind kind) {
  switch (kind) {
    case TypeKind::kInt: return "int";
    case TypeKind::kWide: return "wide";
    case TypeKind::kRef: return "ref";
    case TypeKind::kUnknown: break;
  }
  return "?";
}

ValueId Function::new_value(TypeKind type, int32_t origin_reg,
                            uint32_t def_block, int32_t def_inst) {
  values.push_back(Value{type, origin_reg, def_block, def_inst});
  return static_cast<ValueId>(values.size() - 1);
}

void insn_read_regs(const Insn& insn, std::vector<uint8_t>& out) {
  out.clear();
  switch (insn.op) {
    case Op::kMove:
      out.push_back(insn.b);
      break;
    case Op::kReturn:
    case Op::kThrow:
    case Op::kPackedSwitch:
    case Op::kSput:
      out.push_back(insn.a);
      break;
    case Op::kIfEq:
    case Op::kIfNe:
    case Op::kIfLt:
    case Op::kIfGe:
    case Op::kIfGt:
    case Op::kIfLe:
      out.push_back(insn.a);
      out.push_back(insn.b);
      break;
    case Op::kIfEqz:
    case Op::kIfNez:
    case Op::kIfLtz:
    case Op::kIfGez:
    case Op::kIfGtz:
    case Op::kIfLez:
      out.push_back(insn.a);
      break;
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
    case Op::kAget:
      out.push_back(insn.b);
      out.push_back(insn.c);
      break;
    case Op::kAddLit8:
    case Op::kMulLit8:
    case Op::kNeg:
    case Op::kNot:
    case Op::kNewArray:
    case Op::kArrayLength:
    case Op::kIget:
    case Op::kInstanceOf:
      out.push_back(insn.b);
      break;
    case Op::kAput:  // vB[vC] <- vA
      out.push_back(insn.a);
      out.push_back(insn.b);
      out.push_back(insn.c);
      break;
    case Op::kIput:  // vB.field <- vA
      out.push_back(insn.a);
      out.push_back(insn.b);
      break;
    case Op::kInvokeVirtual:
    case Op::kInvokeDirect:
    case Op::kInvokeStatic:
      for (uint8_t i = 0; i < insn.a && i < 4; ++i) out.push_back(insn.args[i]);
      break;
    default:
      break;
  }
}

std::optional<uint8_t> insn_written_reg(const Insn& insn) {
  switch (insn.op) {
    case Op::kMove:
    case Op::kConst16:
    case Op::kConst32:
    case Op::kConstWide:
    case Op::kConstString:
    case Op::kConstNull:
    case Op::kMoveResult:
    case Op::kMoveException:
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
    case Op::kNewInstance:
    case Op::kNewArray:
    case Op::kArrayLength:
    case Op::kAget:
    case Op::kIget:
    case Op::kSget:
    case Op::kInstanceOf:
      return insn.a;
    default:
      return std::nullopt;
  }
}

namespace {

// Reverse postorder over reachable blocks (entry first).
std::vector<uint32_t> reverse_postorder(const Function& fn) {
  std::vector<uint32_t> order;
  if (fn.blocks.empty()) return order;
  std::vector<uint8_t> state(fn.blocks.size(), 0);  // 0 new, 1 open, 2 done
  std::vector<std::pair<uint32_t, size_t>> stack;
  stack.emplace_back(0, 0);
  state[0] = 1;
  while (!stack.empty()) {
    auto& [b, next] = stack.back();
    const Block& blk = fn.blocks[b];
    if (next < blk.succs.size()) {
      uint32_t s = blk.succs[next++];
      if (state[s] == 0) {
        state[s] = 1;
        stack.emplace_back(s, 0);
      }
    } else {
      state[b] = 2;
      order.push_back(b);
      stack.pop_back();
    }
  }
  std::reverse(order.begin(), order.end());
  return order;
}

}  // namespace

std::vector<uint32_t> compute_idoms(const Function& fn) {
  std::vector<uint32_t> idom(fn.blocks.size(), kNoBlock);
  if (fn.blocks.empty()) return idom;
  std::vector<uint32_t> rpo = reverse_postorder(fn);
  std::vector<uint32_t> rpo_index(fn.blocks.size(), kNoBlock);
  for (uint32_t i = 0; i < rpo.size(); ++i) rpo_index[rpo[i]] = i;

  auto intersect = [&](uint32_t a, uint32_t b) {
    while (a != b) {
      while (rpo_index[a] > rpo_index[b]) a = idom[a];
      while (rpo_index[b] > rpo_index[a]) b = idom[b];
    }
    return a;
  };

  idom[0] = 0;  // sentinel: entry's idom is itself during iteration
  bool changed = true;
  while (changed) {
    changed = false;
    for (uint32_t i = 1; i < rpo.size(); ++i) {
      uint32_t b = rpo[i];
      uint32_t new_idom = kNoBlock;
      for (uint32_t p : fn.blocks[b].preds) {
        if (rpo_index[p] == kNoBlock || idom[p] == kNoBlock) continue;
        new_idom = (new_idom == kNoBlock) ? p : intersect(new_idom, p);
      }
      if (new_idom != kNoBlock && idom[b] != new_idom) {
        idom[b] = new_idom;
        changed = true;
      }
    }
  }
  idom[0] = kNoBlock;  // entry has no immediate dominator
  return idom;
}

bool dominates(const std::vector<uint32_t>& idom, uint32_t a, uint32_t b) {
  // Walk b's dominator chain up to the entry; chains are short in practice.
  for (uint32_t cur = b; cur != kNoBlock; cur = idom[cur]) {
    if (cur == a) return true;
  }
  return false;
}

namespace {

struct DefSite {
  uint32_t block = kNoBlock;
  int32_t inst = kEntryDef;
  bool seen = false;
};

}  // namespace

std::vector<std::string> verify_function(const Function& fn) {
  std::vector<std::string> errors;
  auto fail = [&](std::string msg) { errors.push_back(std::move(msg)); };

  std::vector<DefSite> defs(fn.values.size());
  auto record_def = [&](ValueId v, uint32_t block, int32_t inst) {
    if (v >= fn.values.size()) {
      fail("def of out-of-range value %" + std::to_string(v));
      return;
    }
    if (defs[v].seen) {
      fail("value %" + std::to_string(v) + " defined more than once");
      return;
    }
    defs[v] = DefSite{block, inst, true};
    const Value& val = fn.values[v];
    if (val.def_block != block || val.def_inst != inst) {
      fail("value %" + std::to_string(v) + " def coordinates stale: stored (" +
           std::to_string(val.def_block) + "," + std::to_string(val.def_inst) +
           ") actual (" + std::to_string(block) + "," + std::to_string(inst) +
           ")");
    }
  };

  // Entry defs: values with def_inst == kEntryDef belong to block 0.
  for (ValueId v = 0; v < fn.values.size(); ++v) {
    if (fn.values[v].def_inst == kEntryDef) {
      if (fn.values[v].def_block != 0) {
        fail("entry value %" + std::to_string(v) + " not in block 0");
      }
      defs[v] = DefSite{0, kEntryDef, true};
    }
  }

  for (const Block& b : fn.blocks) {
    if (!b.reachable) {
      // Raw blocks carry no SSA links.
      if (!b.phis.empty()) {
        fail("unreachable block " + std::to_string(b.id) + " has phis");
      }
      for (const Inst& inst : b.insts) {
        if (inst.def != kNoValue || !inst.uses.empty()) {
          fail("unreachable block " + std::to_string(b.id) +
               " has SSA-linked instruction at pc " +
               std::to_string(inst.orig_pc));
        }
      }
      continue;
    }
    for (const Phi& phi : b.phis) {
      record_def(phi.dest, b.id, kPhiDef);
      if (phi.args.size() != b.preds.size()) {
        fail("phi %" + std::to_string(phi.dest) + " in block " +
             std::to_string(b.id) + " has " + std::to_string(phi.args.size()) +
             " operands for " + std::to_string(b.preds.size()) +
             " predecessors");
      }
    }
    for (size_t i = 0; i < b.insts.size(); ++i) {
      if (b.insts[i].def != kNoValue) {
        record_def(b.insts[i].def, b.id, static_cast<int32_t>(i));
      }
    }
    // Edge consistency: every pred lists us as succ and vice versa.
    for (uint32_t p : b.preds) {
      const auto& ss = fn.blocks[p].succs;
      if (std::find(ss.begin(), ss.end(), b.id) == ss.end()) {
        fail("block " + std::to_string(b.id) + " pred " + std::to_string(p) +
             " does not list it as successor");
      }
    }
  }

  std::vector<uint32_t> idom = compute_idoms(fn);

  auto check_use = [&](ValueId v, uint32_t use_block, int32_t use_inst,
                       const char* what) {
    if (v >= fn.values.size() || !defs[v].seen) {
      fail(std::string(what) + " in block " + std::to_string(use_block) +
           " uses undefined value %" + std::to_string(v));
      return;
    }
    const DefSite& d = defs[v];
    if (d.block == use_block) {
      // Same block: entry/phi defs precede all instructions; instruction
      // defs must precede the use.
      if (d.inst >= 0 && use_inst >= 0 && d.inst >= use_inst) {
        fail(std::string(what) + " in block " + std::to_string(use_block) +
             " uses value %" + std::to_string(v) + " before its definition");
      }
      return;
    }
    if (!dominates(idom, d.block, use_block)) {
      fail(std::string(what) + " in block " + std::to_string(use_block) +
           " uses value %" + std::to_string(v) + " whose def block " +
           std::to_string(d.block) + " does not dominate it");
    }
  };

  for (const Block& b : fn.blocks) {
    if (!b.reachable) continue;
    for (const Phi& phi : b.phis) {
      // A phi operand must be defined in or above the corresponding
      // predecessor (it is "used" at the end of that edge).
      for (size_t i = 0; i < phi.args.size() && i < b.preds.size(); ++i) {
        ValueId v = phi.args[i];
        uint32_t pred = b.preds[i];
        if (v >= fn.values.size() || !defs[v].seen) {
          fail("phi %" + std::to_string(phi.dest) + " operand " +
               std::to_string(i) + " undefined");
          continue;
        }
        if (defs[v].block != pred && !dominates(idom, defs[v].block, pred)) {
          fail("phi %" + std::to_string(phi.dest) + " operand %" +
               std::to_string(v) + " def block " +
               std::to_string(defs[v].block) + " does not dominate pred " +
               std::to_string(pred));
        }
      }
    }
    for (size_t i = 0; i < b.insts.size(); ++i) {
      for (ValueId v : b.insts[i].uses) {
        check_use(v, b.id, static_cast<int32_t>(i), "instruction");
      }
    }
  }
  return errors;
}

std::string to_string(const Function& fn) {
  std::ostringstream os;
  os << "function: regs=" << fn.registers_size << " ins=" << fn.ins_size
     << " values=" << fn.values.size() << "\n";
  auto val = [&](ValueId v) {
    std::ostringstream s;
    if (v == kNoValue) {
      s << "%?";
    } else {
      s << "%" << v;
      if (fn.values[v].type != TypeKind::kUnknown) {
        s << ":" << type_name(fn.values[v].type);
      }
    }
    return s.str();
  };
  for (const Block& b : fn.blocks) {
    os << "b" << b.id << " @" << b.start_pc
       << (b.reachable ? "" : " (unreachable)") << "  preds=[";
    for (size_t i = 0; i < b.preds.size(); ++i) {
      os << (i ? "," : "") << b.preds[i];
    }
    os << "] succs=[";
    for (size_t i = 0; i < b.succs.size(); ++i) {
      os << (i ? "," : "") << b.succs[i];
    }
    os << "]\n";
    for (const Phi& phi : b.phis) {
      os << "  " << val(phi.dest) << " = phi v" << phi.reg << " [";
      for (size_t i = 0; i < phi.args.size(); ++i) {
        os << (i ? ", " : "") << val(phi.args[i]);
      }
      os << "]\n";
    }
    for (const Inst& inst : b.insts) {
      os << "  ";
      if (inst.def != kNoValue) os << val(inst.def) << " = ";
      os << bc::op_info(inst.src.op).name;
      for (size_t i = 0; i < inst.uses.size(); ++i) {
        os << (i ? ", " : " ") << val(inst.uses[i]);
      }
      os << "  ; pc=" << inst.orig_pc << "\n";
    }
  }
  return os.str();
}

}  // namespace dexlego::ir
