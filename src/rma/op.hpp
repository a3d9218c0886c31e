// RMA operation taxonomy (paper Listing 1).
#pragma once

#include "common/types.hpp"

namespace rmalock::rma {

/// The accumulate/fetch-op operations used by the lock protocols:
/// MPI_SUM and MPI_REPLACE in MPI-3 RMA terms.
enum class AccumOp : u8 {
  kSum,      // add operand to target word
  kReplace,  // atomically swap target word with operand
};

/// Operation classes for cost accounting and statistics. Put/Get map to
/// RDMA write/read; Accumulate/FAO/CAS are remote atomics (more expensive on
/// real NICs — Schweizer et al. [43]); Flush is a completion fence.
enum class OpKind : u8 {
  kPut = 0,
  kGet,
  kAccumulate,
  kFao,
  kCas,
  kFlush,
  kOpKindCount,
};

inline constexpr usize kOpKindCount =
    static_cast<usize>(OpKind::kOpKindCount);

[[nodiscard]] constexpr const char* op_kind_name(OpKind k) {
  switch (k) {
    case OpKind::kPut: return "Put";
    case OpKind::kGet: return "Get";
    case OpKind::kAccumulate: return "Accumulate";
    case OpKind::kFao: return "FAO";
    case OpKind::kCas: return "CAS";
    case OpKind::kFlush: return "Flush";
    default: return "?";
  }
}

/// True for operations implemented with a target-side atomic unit.
[[nodiscard]] constexpr bool is_atomic_op(OpKind k) {
  return k == OpKind::kAccumulate || k == OpKind::kFao || k == OpKind::kCas;
}

/// Issue discipline of a put/accumulate/get. Blocking ops charge their full
/// end-to-end latency at the call site. Nonblocking (i-prefixed) ops charge
/// the origin only its NIC injection slot at issue; the request then
/// pipelines toward the target, and the next flush(target) charges
/// completion as max(completion times) of everything pending there. Effects
/// are applied at issue in both modes — the modes differ only in when the
/// *cost* lands, which is how NICs pipeline puts to distinct targets and
/// gets to one target. A nonblocking get's value is read at issue but is
/// the caller's only after the flush. FAO/CAS stay blocking: their callers
/// act on the result at once.
enum class IssueMode : u8 {
  kBlocking,
  kNonblocking,
};

}  // namespace rmalock::rma
