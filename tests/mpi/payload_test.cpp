#include "mpi/payload.h"

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace e10::mpi {
namespace {

/// Whether the value `payload` holds lives inside the Payload object.
template <typename T>
bool held_inside(const Payload& payload) {
  const auto* value = reinterpret_cast<const std::byte*>(payload.get_if<T>());
  const auto* self = reinterpret_cast<const std::byte*>(&payload);
  return value >= self && value < self + sizeof(Payload);
}

struct Big {
  std::array<std::int64_t, 5> words{};  // 40 bytes
};

struct ThrowingMove {
  ThrowingMove() = default;
  ThrowingMove(ThrowingMove&&) noexcept(false) {}
  int value = 7;
};

using Manifest = std::pair<std::size_t, std::vector<int>>;

TEST(Payload, SmallNothrowMovableValuesAreInline) {
  static_assert(Payload::kStoredInline<int>);
  static_assert(Payload::kStoredInline<std::vector<int>>);
  static_assert(Payload::kStoredInline<Manifest>);
  static_assert(Payload::kStoredInline<std::shared_ptr<const int>>);
  static_assert(!Payload::kStoredInline<Big>);
  static_assert(!Payload::kStoredInline<ThrowingMove>);

  Payload vec(std::vector<int>{1, 2, 3});
  EXPECT_TRUE(held_inside<std::vector<int>>(vec));
  Payload manifest(Manifest{2, {4, 5}});
  EXPECT_TRUE(held_inside<Manifest>(manifest));
  Payload big(Big{});
  EXPECT_FALSE(held_inside<Big>(big));
  Payload throwing(ThrowingMove{});
  EXPECT_FALSE(held_inside<ThrowingMove>(throwing));

  // A boxed value keeps its address across moves; an inline one travels,
  // and a moved vector keeps its buffer.
  const Big* boxed_at = big.get_if<Big>();
  ASSERT_NE(boxed_at, nullptr);
  Payload moved_big(std::move(big));
  EXPECT_EQ(moved_big.get_if<Big>(), boxed_at);
  const std::vector<int>* held = vec.get_if<std::vector<int>>();
  ASSERT_NE(held, nullptr);
  const int* data = held->data();
  Payload moved_vec(std::move(vec));
  EXPECT_TRUE(held_inside<std::vector<int>>(moved_vec));
  EXPECT_EQ(moved_vec.take<std::vector<int>>().data(), data);
}

TEST(Payload, WrongTypeTakeThrowsAndKeepsTheValue) {
  Payload inline_value(std::string("kept"));
  EXPECT_THROW((void)inline_value.take<int>(), std::logic_error);
  EXPECT_EQ(inline_value.get_if<int>(), nullptr);
  ASSERT_NE(inline_value.get_if<std::string>(), nullptr);
  EXPECT_EQ(inline_value.take<std::string>(), "kept");
  EXPECT_FALSE(inline_value.has_value());

  Big value;
  value.words[4] = 42;
  Payload boxed(value);
  EXPECT_THROW((void)boxed.take<std::string>(), std::logic_error);
  EXPECT_EQ(boxed.take<Big>().words[4], 42);

  Payload empty;
  EXPECT_THROW((void)empty.take<int>(), std::logic_error);
}

TEST(Payload, MovedFromIsEmpty) {
  Payload a(std::vector<int>{1, 2});
  Payload b(std::move(a));
  EXPECT_FALSE(a.has_value());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.get_if<std::vector<int>>(), nullptr);
  ASSERT_TRUE(b.has_value());

  Payload c(Big{});
  c = std::move(b);
  EXPECT_FALSE(b.has_value());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(c.get_if<Big>(), nullptr);
  EXPECT_EQ(c.take<std::vector<int>>(), (std::vector<int>{1, 2}));
}

/// Counts constructions and destructions of one size, and destructions of
/// an object that was already destroyed.
template <std::size_t Bytes>
struct Counted {
  static inline int constructed = 0;
  static inline int destroyed = 0;
  static inline int destroyed_twice = 0;
  Counted() { ++constructed; }
  Counted(const Counted&) { ++constructed; }
  Counted(Counted&&) noexcept { ++constructed; }
  Counted& operator=(const Counted&) = default;
  Counted& operator=(Counted&&) noexcept = default;
  ~Counted() {
    if (!alive) ++destroyed_twice;
    alive = false;
    ++destroyed;
  }
  static int live() { return constructed - destroyed; }
  bool alive = true;
  std::array<std::byte, Bytes> pad{};
};

template <typename T>
void expect_each_value_destroyed_once() {
  {
    Payload a{T{}};
    EXPECT_EQ(T::live(), 1);
    Payload b(std::move(a));
    Payload c;
    c = std::move(b);
    EXPECT_EQ(T::live(), 1);
    {
      T taken = c.take<T>();
      EXPECT_EQ(T::live(), 1);  // moved out; the held one is gone
      EXPECT_FALSE(c.has_value());
    }
    EXPECT_EQ(T::live(), 0);
    c.emplace<T>();
    c.emplace<T>();  // replaces the first
    EXPECT_EQ(T::live(), 1);
    c = Payload(3);  // drops the second
    EXPECT_EQ(T::live(), 0);
    Payload kept{T{}};  // released with the scope
    EXPECT_EQ(T::live(), 1);
  }
  EXPECT_EQ(T::live(), 0);
  EXPECT_GT(T::constructed, 0);
  EXPECT_EQ(T::destroyed, T::constructed);
  EXPECT_EQ(T::destroyed_twice, 0);
}

TEST(Payload, CountedValueDestroyedExactlyOnceInBothModes) {
  static_assert(Payload::kStoredInline<Counted<8>>);
  static_assert(!Payload::kStoredInline<Counted<64>>);
  expect_each_value_destroyed_once<Counted<8>>();
  expect_each_value_destroyed_once<Counted<64>>();
}

}  // namespace
}  // namespace e10::mpi
