// Interprocedural determinism-taint analysis for harp-lint (rules r9, r10).
//
//   r9  nondet-taint      a determinism sink (telemetry event emission,
//                         json::dump/save_file, bench report writers)
//                         reachable from
//                         a nondeterminism source (wall-clock reads,
//                         std::random_device/rand/srand, getenv,
//                         pointer-to-integer casts and pointer hashing,
//                         order-sensitive iteration over unordered
//                         containers). Diagnosed with the full
//                         source → call-chain → sink path in the message.
//   r10 iteration-order   a range-for over a std::unordered_map/
//                         std::unordered_set whose body writes to an
//                         order-sensitive sink or accumulates
//                         non-commutatively (push_back/append, string or
//                         floating-point +=, stream insertion), with a
//                         suggested fix (sorted snapshot or std::map).
//                         Collecting into a container that is subsequently
//                         std::sort-ed in the same function is the
//                         sanctioned pattern and stays silent.
//
// The analysis is function-granular: a function is colored nondeterministic
// when its body contains a source or it calls a colored function; the color
// propagates callee → caller over the whole-tree call graph (callgraph.hpp)
// to a fixpoint via a worklist that marks each node at most once, so cyclic
// and mutually recursive call graphs terminate. Symmetrically, a function is
// sink-reaching when it contains a sink or calls a sink-reaching function.
// r9 fires where the two meet: at a sink site inside a colored function, and
// at a call site where a colored function hands data to an uncolored
// sink-reaching callee. `src/common/rng.hpp` (the sanctioned seed home) is
// exempt from source collection, mirroring r2.
#pragma once

#include <vector>

#include "tools/harp_lint/callgraph.hpp"
#include "tools/harp_lint/lint.hpp"

namespace harp::lint {

/// Run the r9/r10 passes over the whole scanned set and append findings.
void check_determinism_taint(const CallGraph& cg, const std::vector<CgUnit>& units,
                             bool enable_r9, bool enable_r10,
                             std::vector<Finding>& findings);

}  // namespace harp::lint
