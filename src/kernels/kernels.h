#ifndef KBT_KERNELS_KERNELS_H_
#define KBT_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "kernels/kernel_kind.h"

/// kbt::kernels — cache-blocked EM inner loops.
///
/// The 3-layer EM over the extraction cube (Dong et al., VLDB 2015, Sec. 4)
/// spends its time in four loop shapes: staging per-slot vote streams
/// (E step / Stage I), grouping votes per item, and weighted tallies over
/// the per-source / per-extractor CSR index lists (M steps / Stage IV).
/// Each staging and tally primitive has exactly one portable implementation,
/// shared by both kernel kinds; the kinds differ only in the model-level
/// loops that call them and in the item finisher each calls (ItemValuePass
/// for the reference, ItemValuePassIndexed for the memoized program). One
/// contract pins the float program:
///
/// DETERMINISTIC REDUCTION CONTRACT. Every tally accumulates into
/// kTallyLanes independent accumulators, element k landing in lane
/// k % kTallyLanes, and the lanes combine as (l0 + l1) + (l2 + l3). The
/// lane count and combine order are part of the contract, NOT an
/// implementation detail: they are THE float program of every M-step
/// tally, independent of thread count and of how a compiler chooses to
/// vectorize the loop. Changing kTallyLanes or the combine order is a
/// semantic change to every score the system serves.
///
/// Staging kernels are elementwise (no reduction), so their results depend
/// only on the per-element arithmetic; none of them may be compiled with FP
/// contraction (the build sets -ffp-contract=off on this module and on the
/// model layers, so a fused multiply-add can never make the staged and
/// reference model loops round differently).
namespace kbt::kernels {

/// Lanes of the deterministic blocked tally. Part of the numeric contract.
inline constexpr size_t kTallyLanes = 4;

/// Cache-blocking unit for staged sweeps: slots/edges are staged and
/// consumed in blocks of at most this many elements so the staged stream
/// stays in L1/L2. Purely a performance knob — block boundaries never
/// affect results (staging is elementwise).
inline constexpr size_t kStageBlock = 4096;

/// A weighted tally: num = sum w*p, den = sum w (the shared shape of the
/// paper's M steps, Eqs. 4/27/28/32).
struct Tally {
  double num = 0.0;
  double den = 0.0;
};

// ---------------------------------------------------------------------------
// Blocked deterministic tallies over CSR index lists
// ---------------------------------------------------------------------------

/// num = sum_k w[idx[k]] * p[idx[k]], den = sum_k w[idx[k]] over the n-entry
/// index list, in lane order. The per-source M-step tally: idx is the
/// source's slot list, w the claim/correctness weights, p the value
/// posteriors.
Tally TallyIndexed(const uint32_t* idx, size_t n, const double* w,
                   const double* p);

/// MAP tally (Eq. 27): num = sum_k [c[idx[k]] > 0.5] * p[idx[k]],
/// den = sum_k [c[idx[k]] > 0.5]. Masked lanes add +0.0 (never skip), so
/// lane assignment stays positional.
Tally TallyMap(const uint32_t* idx, size_t n, const double* c,
               const double* p);

/// Extractor-quality tally (Eqs. 32/33): over the group's edge list,
/// num = sum_k conf[e_k] * c[edge_slot[e_k]], den = sum_k conf[e_k], with
/// conf widened float -> double before the multiply (exact).
Tally TallyEdges(const uint32_t* edges, size_t n, const float* conf,
                 const uint32_t* edge_slot, const double* c);

// ---------------------------------------------------------------------------
// Elementwise staging sweeps (contiguous [begin, end) ranges)
// ---------------------------------------------------------------------------

/// out[i] = (mask[i] * weight[i]) * table[index[i]] for i in [begin, end).
/// The E-step vote staging (core::ValueLayer, which runs both the multilayer
/// Stage II and the single-layer E step): mask
/// is the 0/1 source-support stream (as doubles), weight the per-slot
/// claim/correctness stream, table the per-source vote memo. out is indexed
/// relative to begin (out[0] corresponds to element `begin`).
void StageVotesMasked(const double* mask, const double* weight,
                      const uint32_t* index, const double* table, size_t begin,
                      size_t end, double* out);

/// out[i] = (mask[i] * weight[i]) * (table[index[i]] - sub[i]). The POPACCU
/// vote: table holds per-source log-odds, sub the per-slot log-popularity
/// memo.
void StageVotesMaskedSub(const double* mask, const double* weight,
                         const uint32_t* index, const double* table,
                         const double* sub, size_t begin, size_t end,
                         double* out);

/// out[e] = double(conf[e]) * net[group[e]] for e in [begin, end): the
/// Stage I per-edge extraction-correctness term, net[g] = Pre_g - w*Abs_g.
void StageEdgeTerms(const float* conf, const uint32_t* group,
                    const double* net, size_t begin, size_t end, double* out);

// ---------------------------------------------------------------------------
// Shared per-item E-step finisher
// ---------------------------------------------------------------------------

/// Reusable per-worker scratch for the E-step item pass. One instance per
/// parallel chunk replaces the former fresh-std::vector-per-item churn
/// (`value_votes` / `log_terms` in the pre-kernel model code); buffers grow
/// to the largest item seen and are reused for the rest of the chunk.
struct EmScratch {
  std::vector<uint32_t> values;
  std::vector<double> value_votes;
  std::vector<double> log_terms;
  /// Staged per-slot votes for the current block (vectorized kind) or the
  /// current item (scalar reference).
  std::vector<double> votes;
  /// Staged per-edge Stage I terms for the current block.
  std::vector<double> edge_terms;
};

/// The reference item finisher. Groups one item's staged votes by distinct
/// value, normalizes through LogSumExp over the observed values plus the
/// unobserved-value mass (Eqs. 2/21), and writes the slot posteriors, the
/// covered flags and the item's unobserved-value probability. The program
/// is the naive one (linear value search while grouping, then a re-search
/// and one exp per slot on write-back), written for obviousness, not speed.
///
/// `votes[s - votes_offset]` is the vote of slot s; `covered_mask[s]` is
/// the per-slot coverage contribution (the item is covered when any of its
/// slots contributes). `num_false` is the item's effective n. Returns the
/// item's max |delta p| against the previous posteriors.
double ItemValuePass(uint32_t slot_begin, uint32_t slot_end,
                     const double* votes, size_t votes_offset,
                     const uint8_t* covered_mask, const uint32_t* slot_values,
                     int num_false, double* slot_value_prob,
                     uint8_t* slot_covered, double* item_unobserved,
                     EmScratch* scratch);

/// The memoized item finisher: ItemValuePass with the value grouping
/// precompiled. `slot_vi[s]` is slot s's index among its item's
/// `num_values` distinct values (a pure function of the static slot_values
/// layout, built once per Run by BuildValueIndex). The vote accumulation
/// visits slots in the same ascending order as the reference's grouping
/// scan and the normalizer is the same; the write-back computes
/// exp(value_votes[vi] - log_z) once per DISTINCT value and gathers it per
/// slot, the same expression on the same inputs. So the result is bit for
/// bit ItemValuePass's (asserted by the parity suite and the bench_table7
/// hard gate). core::ValueLayer is its one model-level caller.
double ItemValuePassIndexed(uint32_t slot_begin, uint32_t slot_end,
                            const double* votes, size_t votes_offset,
                            const uint8_t* covered_mask,
                            const uint32_t* slot_vi, uint32_t num_values,
                            int num_false, double* slot_value_prob,
                            uint8_t* slot_covered, double* item_unobserved,
                            EmScratch* scratch);

/// Fills `slot_vi[s]` (absolute slot indexing) for every slot of item range
/// [slot_begin, slot_end) and returns the number of distinct values, using
/// the exact first-occurrence ordering of the ItemValuePass grouping scan.
/// `scratch->values` is the search buffer. One call per item at staging
/// setup replaces the per-iteration rediscovery.
uint32_t BuildValueIndex(uint32_t slot_begin, uint32_t slot_end,
                         const uint32_t* slot_values, uint32_t* slot_vi,
                         EmScratch* scratch);

}  // namespace kbt::kernels

#endif  // KBT_KERNELS_KERNELS_H_
