// Unit tests: main memory.
#include <gtest/gtest.h>

#include "mem/main_memory.hpp"

namespace araxl {
namespace {

TEST(MainMemory, RoundTripsScalars) {
  MainMemory mem(1 << 20);
  mem.store<double>(0x100, 3.25);
  mem.store<std::uint32_t>(0x200, 0xDEADBEEF);
  EXPECT_DOUBLE_EQ(mem.load<double>(0x100), 3.25);
  EXPECT_EQ(mem.load<std::uint32_t>(0x200), 0xDEADBEEFu);
}

TEST(MainMemory, RoundTripsSpans) {
  MainMemory mem(1 << 16);
  const std::vector<double> data{1.0, 2.0, 3.0};
  mem.store_doubles(64, data);
  EXPECT_EQ(mem.load_doubles(64, 3), data);
}

TEST(MainMemory, ZeroInitialized) {
  MainMemory mem(4096);
  EXPECT_EQ(mem.load<std::uint64_t>(0), 0u);
  EXPECT_EQ(mem.load<std::uint8_t>(4095), 0u);
}

TEST(MainMemory, OutOfBoundsThrows) {
  MainMemory mem(4096);
  EXPECT_THROW(static_cast<void>(mem.load<std::uint64_t>(4090)),
               ContractViolation);
  EXPECT_THROW(mem.store<std::uint8_t>(4096, 1), ContractViolation);
  EXPECT_NO_THROW(static_cast<void>(mem.load<std::uint64_t>(4088)));
}

TEST(MainMemory, ByteAccessUnaligned) {
  MainMemory mem(4096);
  mem.store<std::uint64_t>(13, 0x1122334455667788ull);
  EXPECT_EQ(mem.load<std::uint64_t>(13), 0x1122334455667788ull);
  EXPECT_EQ(mem.load<std::uint8_t>(13), 0x88u);  // little-endian
}

}  // namespace
}  // namespace araxl
