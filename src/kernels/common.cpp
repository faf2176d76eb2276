#include "kernels/common.hpp"

#include <cstring>

#include "common/bits.hpp"
#include "common/contracts.hpp"
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
