#include "kernels/common.hpp"

#include <bit>
#include <cstring>

#include "common/bits.hpp"
#include "common/contracts.hpp"
#include "common/fmt.hpp"
#include "common/rng.hpp"

namespace araxl {

std::unique_ptr<Kernel> make_fmatmul();
std::unique_ptr<Kernel> make_fconv2d();
std::unique_ptr<Kernel> make_jacobi2d();
std::unique_ptr<Kernel> make_fdotproduct();
std::unique_ptr<Kernel> make_fexp();
std::unique_ptr<Kernel> make_fsoftmax();
std::unique_ptr<Kernel> make_spmv();
std::unique_ptr<Kernel> make_stream_triad();
std::unique_ptr<Kernel> make_axpy();

std::vector<std::unique_ptr<Kernel>> make_all_kernels() {
  std::vector<std::unique_ptr<Kernel>> out;
  out.push_back(make_fmatmul());
  out.push_back(make_fconv2d());
  out.push_back(make_jacobi2d());
  out.push_back(make_fdotproduct());
  out.push_back(make_fexp());
  out.push_back(make_fsoftmax());
  return out;
}

std::vector<std::unique_ptr<Kernel>> make_extension_kernels() {
  std::vector<std::unique_ptr<Kernel>> out;
  out.push_back(make_spmv());
  out.push_back(make_stream_triad());
  out.push_back(make_axpy());
  return out;
}

std::unique_ptr<Kernel> make_kernel(std::string_view name) {
  if (name == "fmatmul") return make_fmatmul();
  if (name == "fconv2d") return make_fconv2d();
  if (name == "jacobi2d") return make_jacobi2d();
  if (name == "fdotproduct") return make_fdotproduct();
  if (name == "exp") return make_fexp();
  if (name == "softmax") return make_fsoftmax();
  if (name == "spmv") return make_spmv();
  if (name == "stream_triad") return make_stream_triad();
  if (name == "axpy") return make_axpy();
  fail("unknown kernel name");
}

std::uint64_t elems_for_bytes_per_lane(const MachineConfig& cfg,
                                       std::uint64_t bytes_per_lane) {
  check(bytes_per_lane % 8 == 0, "bytes per lane must be a multiple of 8");
  return bytes_per_lane * cfg.total_lanes() / 8;
}

std::vector<double> random_doubles(std::uint64_t n, double lo, double hi,
                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (auto& v : out) v = rng.next_double(lo, hi);
  return out;
}

namespace {

// One checksum term, after the NH universal hash (as in UMAC and XXH3): the
// word XORed with a key distinct for every position below 2^64 (the step is
// odd), the product of that value's 32-bit halves, plus the word itself.
// One 32x32-bit multiply per word keeps the checksum near memory speed.
// Flipping one bit of a word changes its term unless the other half of the
// keyed value is exactly 1; a swap of x and -x always changes the sum of
// the two terms; any other corruption cancels out with a 2^-32-scale
// chance at most.
constexpr std::uint64_t kPositionStep = 0x9e3779b97f4a7c15ULL;

inline std::uint64_t checksum_term(std::uint64_t word, std::uint64_t index) {
  const std::uint64_t x = word ^ (index * kPositionStep);
  return word + (x & 0xffffffffu) * (x >> 32);
}

}  // namespace

std::uint64_t input_checksum(const void* data, std::uint64_t words) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  std::uint64_t sum = words;
  for (std::uint64_t i = 0; i < words; ++i) {
    std::uint64_t w;
    std::memcpy(&w, bytes + i * 8, sizeof w);
    sum += checksum_term(w, i);
  }
  return sum;
}

VerifyResult Kernel::verify(const Machine& m) const {
  for (const StagedInput& in : staged_) {
    if (input_checksum(m.mem().raw(in.addr, in.words * 8), in.words) != in.checksum) {
      return VerifyResult::inputs_changed();
    }
  }
  return verify_outputs(m);
}

void Kernel::check_footprint(const Machine& m, const MemLayout& layout) const {
  if (layout.end() > m.mem().size()) {
    throw FootprintError(strprintf(
        "kernel %.*s needs %llu bytes of machine memory but mem_size_bytes is %llu",
        static_cast<int>(name().size()), name().data(),
        static_cast<unsigned long long>(layout.end()),
        static_cast<unsigned long long>(m.mem().size())));
  }
}

std::span<const double> Kernel::stage_random_doubles(MainMemory& mem, std::uint64_t addr,
                                                     std::uint64_t n, double lo, double hi,
                                                     std::uint64_t seed) {
  const std::span<double> out = mem.doubles(addr, n);
  Rng rng(seed);
  std::uint64_t sum = n;
  for (std::uint64_t i = 0; i < n; ++i) {
    out[i] = rng.next_double(lo, hi);
    sum += checksum_term(std::bit_cast<std::uint64_t>(out[i]), i);
  }
  staged_.push_back({addr, n, sum});
  return out;
}

void Kernel::record_input(const MainMemory& mem, std::uint64_t addr, std::uint64_t bytes) {
  check(bytes % 8 == 0, "input regions are whole 64-bit words");
  staged_.push_back({addr, bytes / 8, input_checksum(mem.raw(addr, bytes), bytes / 8)});
}

void compare_row(const MainMemory& mem, std::uint64_t addr,
                 std::span<const double> expected, VerifyResult& r) {
  const std::uint8_t* actual = mem.raw(addr, expected.size() * sizeof(double));
  for (const double e : expected) {
    double a;
    std::memcpy(&a, actual, sizeof(double));
    actual += sizeof(double);
    r.add(e, a);
  }
}

std::uint64_t MemLayout::alloc(std::uint64_t bytes) {
  const std::uint64_t base = align_up(cursor_, align_);
  cursor_ = base + bytes;
  return base;
}

}  // namespace araxl
