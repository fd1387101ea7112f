/// \file compiled_expr.hpp
/// \brief Type-specialized batch kernels compiled from expression trees.
///
/// The interpreter walks an `Expression` tree per record and boxes every
/// intermediate in a `Value` variant — exactly the overhead NebulaStream's
/// compiled query engine exists to avoid. At `CompilePlan` time each
/// expression whose leaves resolve to fixed schema offsets is lowered
/// (`Expression::CompileKernel`) into a tree of `ScalarKernel`s that
/// evaluate over a whole run of rows at once: field leaves are raw
/// offset-typed loads, operators are tight loops over primitive columns,
/// and registered extension functions take whole argument columns through
/// one batch call (`FunctionExpression::EvalScalarBatch`).
///
/// Kernels carry mutable per-node scratch columns, so one kernel instance
/// is bound to one pipeline (single-threaded use), matching the engine's
/// one-worker-per-query execution model. Widening between kernel types
/// replicates the interpreter's `ValueAsDouble`/`ValueAsInt64`/
/// `ValueAsBool` semantics exactly, so compiled and interpreted runs are
/// bit-identical.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nebula/exec/batch.hpp"
#include "nebula/expr.hpp"

namespace nebulameos::nebula::exec {

/// \brief Addresses a run of fixed-size rows, optionally through a
/// selection vector: row \p i lives at `base + (sel ? sel[i] : i) * stride`.
struct RowSpan {
  const uint8_t* base = nullptr;
  size_t stride = 0;
  const uint32_t* sel = nullptr;  ///< null = rows 0..count-1
  size_t count = 0;

  const uint8_t* Row(size_t i) const {
    return base + (sel != nullptr ? sel[i] : i) * stride;
  }
};

/// Builds the span of \p buffer's records filtered by \p sel (may be null).
RowSpan SpanOf(const TupleBuffer& buffer, const SelectionVector* sel);

/// Native result type of a kernel node.
enum class KernelType : uint8_t { kBool, kInt64, kDouble };

/// \brief One compiled expression node: batch evaluation into a typed
/// output column.
class ScalarKernel {
 public:
  explicit ScalarKernel(KernelType type) : type_(type) {}
  virtual ~ScalarKernel() = default;

  KernelType type() const { return type_; }

  /// Native-type evaluation; only the overload matching `type()` is
  /// implemented by a concrete kernel (the others assert).
  virtual void EvalBool(const RowSpan& rows, uint8_t* out) const;
  virtual void EvalInt64(const RowSpan& rows, int64_t* out) const;
  virtual void EvalDouble(const RowSpan& rows, double* out) const;

  /// Widening evaluation with interpreter-identical conversions
  /// (bool → 0/1, int64 ↔ double by cast, truthiness = "!= 0").
  void EvalAsBool(const RowSpan& rows, uint8_t* out) const;
  void EvalAsInt64(const RowSpan& rows, int64_t* out) const;
  void EvalAsDouble(const RowSpan& rows, double* out) const;

 private:
  KernelType type_;
  /// Conversion scratch for the widening wrappers (bytes, retyped per
  /// use); capacity stabilizes after the first batch.
  mutable std::vector<uint8_t> convert_scratch_;
};

using KernelPtr = std::unique_ptr<ScalarKernel>;

// --- Kernel constructors used by Expression::CompileKernel ------------------

/// Raw typed load of the field at \p offset; nullptr for text types.
KernelPtr MakeLoadKernel(DataType type, size_t offset);

KernelPtr MakeConstKernel(bool v);
KernelPtr MakeConstKernel(int64_t v);
KernelPtr MakeConstKernel(double v);

/// Arithmetic over both children; \p int_result selects the interpreter's
/// closed-integer evaluation (ArithExpr::int_result_).
KernelPtr MakeArithKernel(ArithOp op, bool int_result, KernelPtr lhs,
                          KernelPtr rhs);

/// Numeric comparison (both sides widened to double, like the interpreter).
KernelPtr MakeCompareKernel(CompareOp op, KernelPtr lhs, KernelPtr rhs);

KernelPtr MakeAndKernel(KernelPtr lhs, KernelPtr rhs);
KernelPtr MakeOrKernel(KernelPtr lhs, KernelPtr rhs);
KernelPtr MakeNotKernel(KernelPtr inner);

/// \brief Bridge for registered extension functions: evaluates every
/// runtime argument kernel into a double column, then calls \p fn's batch
/// entry (`FunctionExpression::EvalScalarBatch`) once for the whole span.
/// `arg_kernels[i] == nullptr` marks a bind-time constant argument whose
/// widened value is `const_args[i]`. No `Value` boxing, no per-row call
/// through the kernel. \p fn must outlive the kernel.
KernelPtr MakeScalarFnKernel(KernelType out_type, const FunctionExpression* fn,
                             std::vector<KernelPtr> arg_kernels,
                             std::vector<double> const_args);

// --- Cross-stage computed-column cache (CSE in fused runs) -------------------

/// \brief Wraps \p inner so its result column is computed at most once per
/// cache epoch — the compiled half of a `PlanCse` wrapper, whose fused
/// operator invalidates the cache once per input batch. The first
/// evaluation runs \p inner over its span and scatters the results into
/// the slot's `column` by *physical* row index, so later stages with
/// refined (subset) selections gather the right values without
/// recomputation. Sound only under the fused-run invariant that the first
/// evaluation's span is a superset of every later span (stage selections
/// only shrink). Returns nullptr when \p inner is null.
KernelPtr MakeColumnCacheKernel(std::shared_ptr<CseCache> cache, size_t slot,
                                KernelPtr inner);

}  // namespace nebulameos::nebula::exec
