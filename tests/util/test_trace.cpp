// Tracer: span nesting, cross-thread merge ordering, ring-full drops,
// disabled-mode zero allocation, JSON export shape.
#include "util/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

// Counts every global allocation in this test binary so the
// disabled-mode test can assert the span fast path allocates nothing.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using lsl::util::TraceEvent;
using lsl::util::Tracer;
using lsl::util::TraceSpan;

void spin_us(int us) {
  const auto until = std::chrono::steady_clock::now() + std::chrono::microseconds(us);
  while (std::chrono::steady_clock::now() < until) {
  }
}

class TraceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    Tracer::instance().stop();
    Tracer::instance().drain();  // leave nothing for the next test
  }
};

TEST_F(TraceTest, DisabledSpansRecordNothingAndNeverAllocate) {
  Tracer::instance().stop();
  Tracer::instance().drain();
  const std::uint64_t before = g_allocs.load();
  for (int i = 0; i < 1000; ++i) {
    TraceSpan span("noop", "test");
    span.arg("k", 1.0);
  }
  EXPECT_EQ(g_allocs.load(), before) << "disabled span fast path allocated";
  EXPECT_TRUE(Tracer::instance().drain().empty());
}

// Everything below exercises *enabled* tracing, which -DLSL_TRACE=OFF
// compiles out (start() refuses, spans are empty inline bodies).
#if LSL_TRACE_ENABLED

TEST_F(TraceTest, NestedSpansStayWithinParentAndSortParentFirst) {
  Tracer::instance().start();
  {
    TraceSpan outer("outer", "test");
    spin_us(50);
    {
      TraceSpan inner("inner", "test");
      spin_us(50);
    }
    spin_us(50);
  }
  const std::vector<TraceEvent> events = Tracer::instance().drain();
  ASSERT_EQ(events.size(), 2u);
  // Same thread; parent starts first and sorts first despite being
  // recorded second (spans are recorded at destruction).
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_EQ(events[0].tid, events[1].tid);
  EXPECT_LE(events[0].ts_us, events[1].ts_us);
  EXPECT_GE(events[0].ts_us + events[0].dur_us, events[1].ts_us + events[1].dur_us);
}

TEST_F(TraceTest, CrossThreadDrainMergesSortedByStartTime) {
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 25;
  Tracer::instance().start();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        TraceSpan span("work", "test");
        spin_us(5);
      }
    });
  }
  for (auto& th : threads) th.join();
  const std::vector<TraceEvent> events = Tracer::instance().drain();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kThreads * kSpansPerThread));
  std::vector<std::uint32_t> tids;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0) {
      EXPECT_LE(events[i - 1].ts_us, events[i].ts_us) << "merge not time-sorted at " << i;
    }
    tids.push_back(events[i].tid);
  }
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
}

TEST_F(TraceTest, RingFullCountsDropsAndKeepsNewestEvents) {
  Tracer::instance().start(/*events_per_thread=*/4);
  for (int i = 0; i < 10; ++i) {
    TraceSpan span("s", "test");
    span.arg("i", static_cast<double>(i));
  }
  EXPECT_EQ(Tracer::instance().dropped(), 6u);
  const std::vector<TraceEvent> events = Tracer::instance().drain();
  ASSERT_EQ(events.size(), 4u);
  // The ring overwrites oldest-first: the survivors are spans 6..9.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_DOUBLE_EQ(events[i].arg1, static_cast<double>(i + 6));
  }
  EXPECT_EQ(Tracer::instance().dropped(), 0u) << "drain should reset the drop count";
}

TEST_F(TraceTest, CloseEndsEarlyAndIsIdempotent) {
  Tracer::instance().start();
  {
    TraceSpan span("early", "test");
    spin_us(20);
    span.close();
    span.close();  // second close must not double-record
    spin_us(200);
  }
  const std::vector<TraceEvent> events = Tracer::instance().drain();
  ASSERT_EQ(events.size(), 1u);
  // The span ended at close(), well before the 200us tail.
  EXPECT_LT(events[0].dur_us, 150.0);
}

TEST_F(TraceTest, JsonHasTraceEventsArrayWithThreadNames) {
  Tracer::instance().start();
  Tracer::set_thread_name("test-main");
  {
    TraceSpan span("op", "cat");
    span.arg("x", 2.5);
  }
  const std::string json = Tracer::instance().json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"op\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"cat\""), std::string::npos);
  EXPECT_NE(json.find("\"x\":2.5"), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("test-main"), std::string::npos);
}

TEST_F(TraceTest, StartClearsEventsFromPreviousSession) {
  Tracer::instance().start();
  { TraceSpan span("stale", "test"); }
  Tracer::instance().stop();
  Tracer::instance().start();
  { TraceSpan span("fresh", "test"); }
  const std::vector<TraceEvent> events = Tracer::instance().drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "fresh");
}

#endif  // LSL_TRACE_ENABLED

}  // namespace
