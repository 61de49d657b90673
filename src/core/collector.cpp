#include "src/core/collector.h"

#include "src/bytecode/insn.h"
#include "src/runtime/object.h"
#include "src/support/bytes.h"
#include "src/support/hash.h"
#include "src/support/log.h"

namespace dexlego::core {

uint64_t TreeNode::fingerprint() const {
  support::Fnv1a h;
  h.add(il.size());
  for (const ILEntry& e : il) {
    h.add(e.pc);
    for (uint16_t u : e.units) h.add(u);
    if (e.ref) {
      h.add(static_cast<uint64_t>(e.ref->kind));
      for (const std::string& p : e.ref->parts) h.add(support::fnv1a(p));
    }
  }
  h.add(sm_start);
  h.add(sm_end ? *sm_end + 1 : 0);
  for (const auto& child : children) h.add(child->fingerprint());
  return h.digest();
}

std::optional<SymRef> symbolic_ref(const rt::RtMethod& method,
                                   std::span<const uint16_t> code, size_t pc) {
  bc::Insn insn = bc::decode_at(code, pc);
  bc::RefKind kind = bc::op_info(insn.op).ref;
  if (kind == bc::RefKind::kNone) return std::nullopt;
  const dex::DexFile& file = method.image->file;
  SymRef ref;
  ref.kind = kind;
  switch (kind) {
    case bc::RefKind::kString:
      ref.parts = {file.string_at(insn.idx)};
      break;
    case bc::RefKind::kType:
      ref.parts = {file.type_descriptor(insn.idx)};
      break;
    case bc::RefKind::kField: {
      const dex::FieldRef& f = file.fields.at(insn.idx);
      ref.parts = {file.type_descriptor(f.class_type), file.type_descriptor(f.type),
                   file.string_at(f.name)};
      break;
    }
    case bc::RefKind::kMethod: {
      const dex::MethodRef& m = file.methods.at(insn.idx);
      const dex::Proto& proto = file.protos.at(m.proto);
      ref.parts = {file.type_descriptor(m.class_type), file.string_at(m.name),
                   file.type_descriptor(proto.return_type)};
      for (uint32_t p : proto.param_types) {
        ref.parts.push_back(file.type_descriptor(p));
      }
      break;
    }
    case bc::RefKind::kNone:
      break;
  }
  return ref;
}

MethodKey Collector::key_of(const rt::RtMethod& method) {
  return MethodKey{
      method.declaring != nullptr ? method.declaring->descriptor : "?",
      method.name, method.shorty};
}

namespace {

std::vector<CollectedField> snapshot_statics(const rt::RtClass& cls) {
  std::vector<CollectedField> fields;
  for (const rt::RtField& f : cls.static_fields) {
    CollectedField cf;
    cf.name = f.name;
    cf.type_descriptor = f.type_descriptor;
    cf.access_flags = f.access_flags;
    const rt::Value& v = cls.static_values.at(f.slot);
    if (!v.is_ref()) {
      cf.static_value.kind = CollectedValue::Kind::kInt;
      cf.static_value.i = v.i;
    } else if (v.ref != nullptr && v.ref->kind == rt::Object::Kind::kString) {
      cf.static_value.kind = CollectedValue::Kind::kString;
      cf.static_value.s = v.ref->str;
    } else {
      cf.static_value.kind = CollectedValue::Kind::kNull;
    }
    fields.push_back(std::move(cf));
  }
  return fields;
}

}  // namespace

void Collector::on_class_loaded(rt::RtClass& cls) {
  if (cls.is_framework) return;
  if (class_index_.contains(cls.descriptor)) return;

  CollectedClass out;
  out.descriptor = cls.descriptor;
  out.super_descriptor = cls.super_descriptor;
  out.access_flags = cls.access_flags;
  for (const rt::RtField& f : cls.instance_fields) {
    CollectedField cf;
    cf.name = f.name;
    cf.type_descriptor = f.type_descriptor;
    cf.access_flags = f.access_flags;
    out.instance_fields.push_back(std::move(cf));
  }
  out.static_fields = snapshot_statics(cls);
  class_index_.emplace(cls.descriptor, output_.classes.size());
  output_.classes.push_back(std::move(out));
}

void Collector::on_class_initialized(rt::RtClass& cls) {
  if (cls.is_framework) return;
  // Load always precedes initialization, but be defensive about hooks
  // attached mid-run (force execution re-runs apps on a shared collector).
  auto it = class_index_.find(cls.descriptor);
  if (it == class_index_.end()) {
    on_class_loaded(cls);
    it = class_index_.find(cls.descriptor);
    if (it == class_index_.end()) return;
  }
  output_.classes[it->second].static_fields = snapshot_statics(cls);
}

MethodRecord& Collector::record_for(rt::RtMethod& method) {
  MethodKey key = key_of(method);
  auto it = output_.methods.find(key);
  if (it != output_.methods.end()) return it->second;

  MethodRecord rec;
  rec.key = key;
  rec.access_flags = method.access_flags;
  rec.is_native = method.is_native();
  if (method.code) {
    rec.registers_size = method.code->registers_size;
    rec.ins_size = method.code->ins_size;
    rec.tries = method.code->tries;
    rec.lines = method.code->lines;
  }
  // Proto descriptors straight from the defining image.
  if (method.image != nullptr) {
    const dex::DexFile& file = method.image->file;
    const dex::MethodRef& mref = file.methods.at(method.dex_method_idx);
    const dex::Proto& proto = file.protos.at(mref.proto);
    rec.return_type = file.type_descriptor(proto.return_type);
    for (uint32_t p : proto.param_types) {
      rec.param_types.push_back(file.type_descriptor(p));
    }
  }
  return output_.methods.emplace(std::move(key), std::move(rec)).first->second;
}

void Collector::on_method_entry(rt::RtMethod& method) {
  Activation act;
  act.key = key_of(method);
  act.bytecode = method.code != nullptr;
  MethodRecord& rec = record_for(method);
  ++rec.executions;
  if (act.bytecode) {
    act.root = std::make_unique<TreeNode>();
    act.current = act.root.get();
  }
  stack_.push_back(std::move(act));
}

void Collector::on_instruction(rt::RtMethod& method, uint32_t dex_pc,
                               std::span<const uint16_t> code) {
  ++output_.total_instructions_observed;
  if (stack_.empty() || !stack_.back().bytecode) return;
  Activation& act = stack_.back();
  if (act.key.name != method.name) return;  // defensive: mismatched frame

  // Snapshot the instruction's units *now* — the array may change later.
  ILEntry entry;
  entry.pc = static_cast<uint16_t>(dex_pc);
  size_t width;
  try {
    width = bc::width_at(code, dex_pc);
    entry.units.assign(code.begin() + dex_pc, code.begin() + dex_pc + width);
    entry.ref = symbolic_ref(method, code, dex_pc);
    bc::Insn insn = bc::decode_at(code, dex_pc);
    if (insn.op == bc::Op::kPackedSwitch) {
      // Payload units are data the interpreter never "executes"; snapshot
      // them as metadata so the reassembler can rebuild the switch.
      bc::SwitchPayload payload = bc::read_switch_payload(code, dex_pc, insn);
      SwitchSnapshot snap;
      snap.first_key = payload.first_key;
      for (int32_t rel : payload.rel_targets) {
        snap.target_pcs.push_back(
            static_cast<uint16_t>(static_cast<int32_t>(dex_pc) + rel));
      }
      entry.switch_payload = std::move(snap);
    }
  } catch (const support::ParseError&) {
    return;  // undecodable (runtime raises VerifyError); nothing to collect
  } catch (const std::out_of_range&) {
    return;
  }

  TreeNode* current = act.current;
  auto it = current->iim.find(entry.pc);
  if (it != current->iim.end()) {
    const ILEntry& old = current->il[it->second];
    if (old.same_instruction(entry)) {
      return;  // same instruction at same index: already recorded
    }
    // Divergence: the instruction at this dex_pc changed since we recorded
    // it — a new layer of self-modifying code (Algorithm 1 lines 9-13).
    auto child = std::make_unique<TreeNode>();
    child->parent = current;
    child->sm_start = entry.pc;
    current->children.push_back(std::move(child));
    act.current = current->children.back().get();
    current = act.current;
    ++output_.divergences_detected;
  } else if (current->parent != nullptr) {
    auto pit = current->parent->iim.find(entry.pc);
    if (pit != current->parent->iim.end()) {
      const ILEntry& old = current->parent->il[pit->second];
      if (old.same_instruction(entry)) {
        // Convergence: this divergence layer ended (Algorithm 1 lines 17-27).
        current->sm_end = entry.pc;
        act.current = current->parent;
        return;
      }
    }
  }

  current->iim.emplace(entry.pc, current->il.size());
  current->il.push_back(std::move(entry));
}

void Collector::finish_activation(Activation& act) {
  if (!act.bytecode || act.root == nullptr || act.root->il.empty()) return;
  auto it = output_.methods.find(act.key);
  if (it == output_.methods.end()) return;
  MethodRecord& rec = it->second;
  uint64_t fp = act.root->fingerprint();
  std::set<uint64_t>& seen = tree_fingerprints_[act.key];
  if (seen.contains(fp)) return;  // keep unique trees only
  if (rec.trees.size() >= options_.max_variants) {
    ++rec.dropped_trees;
    DL_DEBUG << "variant cap reached for " << rec.key.pretty();
    return;
  }
  seen.insert(fp);
  rec.trees.push_back(std::move(act.root));
}

void Collector::on_method_exit(rt::RtMethod& method) {
  (void)method;
  if (stack_.empty()) return;
  finish_activation(stack_.back());
  stack_.pop_back();
}

void Collector::on_reflective_invoke(rt::RtMethod& caller, uint32_t dex_pc,
                                     rt::RtMethod& target) {
  MethodRecord& rec = record_for(caller);
  SymRef ref;
  ref.kind = bc::RefKind::kMethod;
  const dex::DexFile& file = target.image->file;
  const dex::MethodRef& mref = file.methods.at(target.dex_method_idx);
  const dex::Proto& proto = file.protos.at(mref.proto);
  ref.parts = {target.declaring->descriptor, target.name,
               file.type_descriptor(proto.return_type)};
  for (uint32_t p : proto.param_types) ref.parts.push_back(file.type_descriptor(p));
  // Record whether the target is static so the reassembler can pick the
  // invoke opcode; encoded as an extra trailing marker part.
  ref.parts.push_back(target.is_static() ? "#static" : "#virtual");
  auto [it, inserted] =
      rec.reflection_targets.emplace(static_cast<uint16_t>(dex_pc), ref);
  if (inserted) ++output_.reflection_sites;
  else if (!(it->second == ref)) {
    DL_DEBUG << "multiple reflective targets at " << rec.key.pretty() << "@"
             << dex_pc << " — keeping first";
  }
}

void merge_collection(CollectionOutput& into, CollectionOutput&& from,
                      size_t max_variants) {
  std::set<std::string> have_classes;
  for (const CollectedClass& c : into.classes) have_classes.insert(c.descriptor);
  for (CollectedClass& c : from.classes) {
    if (have_classes.insert(c.descriptor).second) {
      into.classes.push_back(std::move(c));
    }
  }

  for (auto& [key, rec] : from.methods) {
    auto it = into.methods.find(key);
    if (it == into.methods.end()) {
      into.methods.emplace(key, std::move(rec));
      continue;
    }
    MethodRecord& mine = it->second;
    mine.executions += rec.executions;
    mine.dropped_trees += rec.dropped_trees;
    std::set<uint64_t> seen;
    for (const auto& tree : mine.trees) seen.insert(tree->fingerprint());
    for (auto& tree : rec.trees) {
      if (!seen.insert(tree->fingerprint()).second) continue;
      if (mine.trees.size() >= max_variants) {
        ++mine.dropped_trees;
        continue;
      }
      mine.trees.push_back(std::move(tree));
    }
    for (auto& [pc, ref] : rec.reflection_targets) {
      mine.reflection_targets.emplace(pc, std::move(ref));  // first one wins
    }
  }

  into.total_instructions_observed += from.total_instructions_observed;
  into.divergences_detected += from.divergences_detected;
  // The site counter mirrors the per-method maps exactly (the collector
  // increments it only on insert), so recompute rather than guess overlap.
  into.reflection_sites = 0;
  for (const auto& [key, rec] : into.methods) {
    into.reflection_sites += rec.reflection_targets.size();
  }
}

CollectionOutput Collector::take_output() {
  while (!stack_.empty()) {
    finish_activation(stack_.back());
    stack_.pop_back();
  }
  // The fingerprint cache mirrors output_.methods[...].trees, which the move
  // empties — drop it so a reused Collector dedups against reality.
  tree_fingerprints_.clear();
  return std::move(output_);
}

}  // namespace dexlego::core
