#ifndef KBT_KERNELS_KERNEL_KIND_H_
#define KBT_KERNELS_KERNEL_KIND_H_

#include <cstdint>
#include <string_view>

namespace kbt::kernels {

/// Which program of the EM model loops a run uses; each kind is one program
/// for every cube. The two kinds share the staging and tally primitives of
/// kernels.h (one implementation each) and differ in how the model layers
/// drive them: naive per-slot loops finished by ItemValuePass, versus
/// staged, memoized sweeps finished by ItemValuePassIndexed (for the value
/// layer of both models, core::ValueLayer). Both execute the SAME float
/// program — the deterministic blocked reduction contract (see kernels.h)
/// pins the accumulation order — so their outputs are bit-for-bit
/// identical; the
/// parity suite in tests/kernels/ enforces that. The scalar reference is
/// the oracle: a straightforward transcription of the paper's equations.
enum class Kind : uint8_t {
  /// Naive per-slot loops, no staging, no memoization. The testing oracle.
  kScalarReference = 0,
  /// Structure-of-arrays staging, cache-blocked sweeps, per-source vote
  /// memoization and exp-once-per-distinct-value item passes. When items
  /// disagree on n, the ACCU vote is computed per slot inside the same
  /// sweep (POPACCU's table never depends on n). Bit-for-bit equal to
  /// kScalarReference.
  kVectorized = 1,
};

/// The build-selected default (-DKBT_KERNELS=scalar_reference flips it to
/// the oracle so a CI leg runs the whole suite on the reference path).
Kind DefaultKind();

/// Stable display name: "scalar_reference" / "vectorized".
std::string_view KindName(Kind kind);

}  // namespace kbt::kernels

#endif  // KBT_KERNELS_KERNEL_KIND_H_
