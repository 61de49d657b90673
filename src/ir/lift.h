// Lifts LDEX method bodies into the SSA IR (ir.h): linear decode, basic
// blocks at branch targets and try boundaries, dominator-tree phi
// placement, register renaming, and type inference from opcode formats and
// method shorties. Lifting is one-way: the source body is only read, and
// the IR is never lowered back to code units. Throws support::ParseError
// when the body does not decode linearly (the same condition the verifier
// rejects).
#pragma once

#include "src/dex/dex.h"
#include "src/ir/ir.h"

namespace dexlego::ir {

// Lifts a code item without pool context; all types are structural
// (consts, news). Exception edges follow the interpreter contract: every
// instruction covered by a try range gets its own block with an edge to
// the handler, so handler phis join exactly the states the per-pc
// bytecode engine would merge.
Function lift_code(const dex::CodeItem& code);

// Lifts with pool context: additionally infers value types from field /
// proto descriptors and the method's own shorty (argument registers).
Function lift_method(const dex::DexFile& file, const dex::MethodDef& method);

}  // namespace dexlego::ir
