#include "sim/resource.h"

#include <gtest/gtest.h>

#include "common/units.h"

namespace e10::sim {
namespace {

using namespace e10::units;

TEST(ResourceTimeline, IdleResourceServesImmediately) {
  ResourceTimeline r;
  EXPECT_EQ(r.reserve(seconds(1), milliseconds(10)),
            seconds(1) + milliseconds(10));
}

TEST(ResourceTimeline, BackToBackRequestsQueue) {
  ResourceTimeline r;
  const Time first = r.reserve(0, milliseconds(10));
  EXPECT_EQ(first, milliseconds(10));
  // Second request at t=0 waits for the first to finish.
  const Time second = r.reserve(0, milliseconds(10));
  EXPECT_EQ(second, milliseconds(20));
}

TEST(ResourceTimeline, GapLeavesResourceIdle) {
  ResourceTimeline r;
  (void)r.reserve(0, milliseconds(1));
  const Time later = r.reserve(seconds(10), milliseconds(1));
  EXPECT_EQ(later, seconds(10) + milliseconds(1));
}

TEST(ResourceTimeline, Accounting) {
  ResourceTimeline r;
  (void)r.reserve(0, milliseconds(3));
  (void)r.reserve(0, milliseconds(4));
  EXPECT_EQ(r.reservations(), 2u);
  EXPECT_EQ(r.busy_time(), milliseconds(7));
  EXPECT_EQ(r.next_free(), milliseconds(7));
}

TEST(ResourceTimeline, NegativeServiceThrows) {
  ResourceTimeline r;
  EXPECT_THROW(r.reserve(0, -1), std::logic_error);
}

}  // namespace
}  // namespace e10::sim
