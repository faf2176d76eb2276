// Benchmark kernel framework (paper Table I).
//
// Each kernel knows how to (a) size its problem for a weak-scaling point —
// the paper's "B/lane" metric: bytes of vector data each lane processes per
// register, so N = bytes_per_lane x total_lanes / 8 for DP elements — (b)
// generate its input data and vector program for a given machine, and (c)
// verify the machine's results against a scalar golden reference.
//
// Every input lives once, in machine memory: a kernel generates each
// read-only input straight into `m.mem()` and records its checksum, and
// verify() first proves those regions unchanged, then reads them in place.
#ifndef ARAXL_KERNELS_COMMON_HPP
#define ARAXL_KERNELS_COMMON_HPP

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "machine/machine.hpp"

namespace araxl {

/// Result of verifying a kernel run.
struct VerifyResult {
  double max_rel_err = 0.0;
  std::uint64_t checked = 0;

  /// Folds one output element. Its error is |e - a| / max(|e|, 1) (absolute
  /// error for tiny values); an error that is NaN (a NaN output, or a
  /// finite output where the golden is infinite) counts as +inf, so it
  /// fails every tolerance.
  void add(double expected, double actual) {
    ++checked;
    if (expected == actual) return;
    const double err = std::abs(expected - actual) / std::max(std::abs(expected), 1.0);
    max_rel_err = std::isnan(err) ? std::numeric_limits<double>::infinity()
                                  : std::max(max_rel_err, err);
  }

  [[nodiscard]] bool ok(double tol) const { return max_rel_err <= tol; }

  /// The verdict on a run that changed one of its read-only inputs: no
  /// output is checked against a golden of altered inputs, and the +inf
  /// error fails every tolerance.
  [[nodiscard]] static VerifyResult inputs_changed() {
    VerifyResult r;
    r.max_rel_err = std::numeric_limits<double>::infinity();
    return r;
  }
};

/// Position-sensitive 64-bit checksum of the `words` 64-bit words at
/// `data`: each word is hashed with its index and the hashes are summed, so
/// a flipped bit, another NaN payload, or two swapped or shifted words all
/// change it (see the term's comment in common.cpp for the exact bounds).
[[nodiscard]] std::uint64_t input_checksum(const void* data, std::uint64_t words);

/// Thrown by Kernel::build() when a problem does not fit the machine's
/// memory: a property of the (machine, kernel, size) point, which the
/// driver reports as a config error before anything is simulated.
class FootprintError : public ContractViolation {
 public:
  using ContractViolation::ContractViolation;
};

class MemLayout;

/// Interface of one Table-I benchmark kernel.
class Kernel {
 public:
  virtual ~Kernel() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Paper Table I "Max Perf" in DP-FLOP/cycle per total lane (2.0 for
  /// fmatmul/fconv2d, 1.0 for jacobi2d/fdotproduct, ...).
  [[nodiscard]] virtual double max_perf_factor() const = 0;

  /// LMUL the kernel uses at a given weak-scaling point (Table I).
  [[nodiscard]] virtual Lmul lmul(std::uint64_t bytes_per_lane) const = 0;

  /// Generates inputs into `m.mem()` and returns the vector program for the
  /// weak-scaling point `bytes_per_lane`. May be called repeatedly with
  /// different machines/sizes; state for verify() refers to the last build.
  ///
  /// Each read-only input is written once, straight into machine memory,
  /// with stage_random_doubles() or record_input(); the kernel keeps no
  /// host copy of it and reads it back from `m.mem()` where the program
  /// needs a value (a scalar operand, a slide fill). Only inputs the program
  /// overwrites (axpy's y) and small scalar tables that never enter memory
  /// (fconv2d's filter taps) stay on the host. Throws FootprintError, before
  /// writing anything, when the problem does not fit `m.mem()`.
  Program build(Machine& m, std::uint64_t bytes_per_lane) {
    staged_.clear();
    return build_program(m, bytes_per_lane);
  }

  /// Useful DP-FLOP of the last built problem (the paper's accounting).
  [[nodiscard]] virtual std::uint64_t useful_flops() const = 0;

  /// Compares machine results against the scalar reference of the last
  /// build. First every staged input region is checksummed again: if the
  /// run wrote into one, the result is VerifyResult::inputs_changed() and
  /// no golden is computed from altered inputs. Then the golden is computed
  /// from the inputs in place, one output row at a time, in cache order,
  /// with every element's FP operation chain in the kernel's dataflow order
  /// (so tolerance-0 kernels match bit for bit), and each row is compared
  /// in place against the machine's memory with compare_row(): no full-size
  /// golden and no copy of inputs or output. `checked` is the exact number
  /// of output elements; any NaN error fails (see VerifyResult::add).
  [[nodiscard]] VerifyResult verify(const Machine& m) const;

  /// A read-only input the last build staged in machine memory: `words`
  /// 64-bit words at `addr`, with their input_checksum().
  struct StagedInput {
    std::uint64_t addr;
    std::uint64_t words;
    std::uint64_t checksum;
  };

  /// The regions verify() proves unchanged, in staging order.
  [[nodiscard]] std::span<const StagedInput> staged_inputs() const { return staged_; }

  /// Verification tolerance (relative); exact-dataflow kernels use 0.
  [[nodiscard]] virtual double tolerance() const { return 1e-12; }

  /// Re-seeds input generation for the next build(). Base 0 (the default)
  /// keeps each kernel's legacy fixed inputs; the parallel driver gives
  /// every job its own base so no two jobs share an input stream.
  void seed_inputs(std::uint64_t base) noexcept { seed_base_ = base; }

 protected:
  /// Seed for one input buffer. `tag` is the kernel's legacy per-buffer
  /// constant; under a non-zero base each (base, tag) pair forks its own
  /// independent stream.
  [[nodiscard]] std::uint64_t input_seed(std::uint64_t tag) const noexcept {
    return seed_base_ == 0 ? tag : Rng(seed_base_).fork(tag).next_u64();
  }

  /// Throws FootprintError unless every buffer `layout` handed out fits in
  /// `m.mem()`. Call after the last alloc(), before writing any input.
  void check_footprint(const Machine& m, const MemLayout& layout) const;

  /// Writes the doubles random_doubles(n, lo, hi, seed) would return to
  /// [addr, addr + 8n) of `mem`, generated in place, and records the region
  /// as a read-only input. Returns the staged values.
  std::span<const double> stage_random_doubles(MainMemory& mem, std::uint64_t addr,
                                               std::uint64_t n, double lo, double hi,
                                               std::uint64_t seed);

  /// Records the `bytes` already written at `addr` as a read-only input.
  void record_input(const MainMemory& mem, std::uint64_t addr, std::uint64_t bytes);

 private:
  /// build() after the staged-input list is reset.
  virtual Program build_program(Machine& m, std::uint64_t bytes_per_lane) = 0;

  /// verify() once every staged input is proven unchanged.
  [[nodiscard]] virtual VerifyResult verify_outputs(const Machine& m) const = 0;

  std::uint64_t seed_base_ = 0;
  std::vector<StagedInput> staged_;
};

/// All six Table-I kernels in paper order.
std::vector<std::unique_ptr<Kernel>> make_all_kernels();

/// Extension kernels beyond the paper's benchmark set: "spmv" (CSR sparse
/// matrix-vector product over the indexed-access path), "stream_triad"
/// (bandwidth probe), and "axpy" (the steady-state loop-batching
/// reference workload).
std::vector<std::unique_ptr<Kernel>> make_extension_kernels();

/// Factory by name ("fmatmul", "fconv2d", "jacobi2d", "fdotproduct",
/// "exp", "softmax", "spmv", "stream_triad", "axpy"); throws on unknown
/// names.
std::unique_ptr<Kernel> make_kernel(std::string_view name);

/// jacobi2d with its input pitch left at N + 2 doubles instead of padded
/// to a lane multiple. Not registered: the sweeps and committed figures
/// keep the padded layout; this variant exists to test and measure the
/// drifting-phase layout.
std::unique_ptr<Kernel> make_jacobi2d_unpadded();

// ---- shared helpers ---------------------------------------------------------

/// DP elements per vector for a weak-scaling point: N = B/lane x lanes / 8.
std::uint64_t elems_for_bytes_per_lane(const MachineConfig& cfg,
                                       std::uint64_t bytes_per_lane);

/// Deterministic input data in [lo, hi).
std::vector<double> random_doubles(std::uint64_t n, double lo, double hi,
                                   std::uint64_t seed);

/// Folds one golden row into `r`, compared in place against the doubles
/// at [addr, addr + 8 * expected.size()) of `mem`: one bounds check per row.
void compare_row(const MainMemory& mem, std::uint64_t addr,
                 std::span<const double> expected, VerifyResult& r);

/// Simple bump allocator for laying out kernel buffers in main memory.
class MemLayout {
 public:
  explicit MemLayout(std::uint64_t base = 1u << 20, std::uint64_t align = 4096)
      : cursor_(base), align_(align) {}

  /// Reserves `bytes` and returns the base address.
  std::uint64_t alloc(std::uint64_t bytes);

  /// One past the last reserved byte: the memory the layout needs.
  [[nodiscard]] std::uint64_t end() const noexcept { return cursor_; }

 private:
  std::uint64_t cursor_;
  std::uint64_t align_;
};

}  // namespace araxl

#endif  // ARAXL_KERNELS_COMMON_HPP
