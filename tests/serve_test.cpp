// Tests for the long-running service layer (serve/): the JSON wire
// format, the NDJSON protocol codec, and the Service engine's contracts
// -- verdicts byte-identical to batch::check, bounded-queue backpressure
// with retry hints, priority ordering, deadline handling (never silently
// dropped), per-request cache accounting, and drain-complete shutdown.
// Everything here is in-process and socket-free by design; the TCP path
// is exercised by the CI serve smoke (speccc_serve + speccc_load).
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "batch/batch.hpp"
#include "cache/store.hpp"
#include "difftest/harness.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "util/diagnostics.hpp"

namespace batch = speccc::batch;
namespace cache = speccc::cache;
namespace serve = speccc::serve;
namespace json = speccc::serve::json;
using speccc::util::ParseError;

namespace {

batch::SpecTask door_spec(std::string name = "doors") {
  return {std::move(name),
          {
              {"R1", "If the door button is pressed, the lock signal is updated."},
              {"R2",
               "When the door sensor is detected, eventually the alarm is "
               "raised."},
          }};
}

serve::Request make_request(std::string id, batch::SpecTask spec,
                            int priority = 0, double deadline_seconds = 0.0) {
  serve::Request request;
  request.id = std::move(id);
  request.spec = std::move(spec);
  request.priority = priority;
  request.deadline_seconds = deadline_seconds;
  return request;
}

}  // namespace

// ---- serve::json ------------------------------------------------------------

TEST(ServeJson, ParsesScalarsArraysAndObjects) {
  const json::Value doc =
      json::parse(R"({"a":1,"b":[true,null,"x"],"c":{"d":-2.5}})");
  ASSERT_EQ(doc.kind(), json::Kind::kObject);
  EXPECT_EQ(doc.find("a")->as_number(), 1.0);
  const json::Array& b = doc.find("b")->as_array();
  ASSERT_EQ(b.size(), 3u);
  EXPECT_TRUE(b[0].as_bool());
  EXPECT_TRUE(b[1].is_null());
  EXPECT_EQ(b[2].as_string(), "x");
  EXPECT_EQ(doc.find("c")->find("d")->as_number(), -2.5);
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(ServeJson, DecodesEscapesIncludingSurrogatePairs) {
  const json::Value doc = json::parse(R"("a\n\t\"\\é😀")");
  EXPECT_EQ(doc.as_string(), "a\n\t\"\\\xc3\xa9\xf0\x9f\x98\x80");
}

TEST(ServeJson, RejectsMalformedDocuments) {
  EXPECT_THROW(json::parse(""), ParseError);
  EXPECT_THROW(json::parse("{"), ParseError);
  EXPECT_THROW(json::parse("{}extra"), ParseError);
  EXPECT_THROW(json::parse("{\"a\":}"), ParseError);
  EXPECT_THROW(json::parse("[1,]"), ParseError);
  EXPECT_THROW(json::parse("nul"), ParseError);
  EXPECT_THROW(json::parse("\"unterminated"), ParseError);
  EXPECT_THROW(json::parse("\"bad \\q escape\""), ParseError);
  EXPECT_THROW(json::parse("\"lone \\ud800 surrogate\""), ParseError);
  EXPECT_THROW(json::parse("1.2.3"), ParseError);
  // Depth cap: reject a pathological nesting chain rather than recurse.
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_THROW(json::parse(deep), ParseError);
  // Checked accessors throw on kind mismatch.
  EXPECT_THROW((void)json::parse("42").as_string(), ParseError);
}

TEST(ServeJson, WritesDeterministicallyWithSortedKeysAndExactIntegers) {
  json::Object o;
  o["zeta"] = json::Value(std::int64_t{1234567890123});
  o["alpha"] = json::Value(0.5);
  o["mid"] = json::Value("a\"b\nc");
  std::string out;
  json::write(out, json::Value(o));
  EXPECT_EQ(out, R"({"alpha":0.5,"mid":"a\"b\nc","zeta":1234567890123})");
  // Round-trip: what we write, we parse.
  const json::Value back = json::parse(out);
  EXPECT_EQ(back.find("zeta")->as_number(), 1234567890123.0);
}

// ---- serve protocol codec ---------------------------------------------------

TEST(ServeProtocol, ParsesCheckWithStringAndObjectRequirements) {
  const serve::ParsedRequest parsed = serve::parse_request(
      R"({"method":"check","id":"r9","name":"spec-a","priority":2,)"
      R"("deadline_ms":1500,"requirements":)"
      R"(["the door is open",{"id":"lock","text":"the lock is closed"}]})");
  EXPECT_EQ(parsed.method, serve::Method::kCheck);
  EXPECT_EQ(parsed.id, "r9");
  EXPECT_EQ(parsed.request.spec.name, "spec-a");
  EXPECT_EQ(parsed.request.priority, 2);
  EXPECT_DOUBLE_EQ(parsed.request.deadline_seconds, 1.5);
  ASSERT_EQ(parsed.request.spec.requirements.size(), 2u);
  EXPECT_EQ(parsed.request.spec.requirements[0].id, "R1");  // positional default
  EXPECT_EQ(parsed.request.spec.requirements[0].text, "the door is open");
  EXPECT_EQ(parsed.request.spec.requirements[1].id, "lock");
}

TEST(ServeProtocol, CheckDefaultsIdToNameAndNameToSpec) {
  const serve::ParsedRequest named = serve::parse_request(
      R"({"method":"check","name":"n1","requirements":["x is set"]})");
  EXPECT_EQ(named.id, "n1");
  EXPECT_EQ(named.request.id, "n1");
  const serve::ParsedRequest bare =
      serve::parse_request(R"({"method":"check","requirements":["x is set"]})");
  EXPECT_EQ(bare.request.spec.name, "spec");
  EXPECT_EQ(bare.id, "spec");
}

TEST(ServeProtocol, ParsesControlMethods) {
  EXPECT_EQ(serve::parse_request(R"({"method":"ping","id":"p"})").method,
            serve::Method::kPing);
  EXPECT_EQ(serve::parse_request(R"({"method":"stats"})").method,
            serve::Method::kStats);
  EXPECT_EQ(serve::parse_request(R"({"method":"shutdown"})").method,
            serve::Method::kShutdown);
}

TEST(ServeProtocol, RejectsMalformedRequests) {
  EXPECT_THROW(serve::parse_request("not json"), ParseError);
  EXPECT_THROW(serve::parse_request("[1,2]"), ParseError);
  EXPECT_THROW(serve::parse_request(R"({"id":"x"})"), ParseError);  // no method
  EXPECT_THROW(serve::parse_request(R"({"method":"frobnicate"})"), ParseError);
  EXPECT_THROW(serve::parse_request(R"({"method":"check"})"), ParseError);
  EXPECT_THROW(
      serve::parse_request(R"({"method":"check","requirements":[]})"),
      ParseError);
  EXPECT_THROW(
      serve::parse_request(R"({"method":"check","requirements":[42]})"),
      ParseError);
  EXPECT_THROW(serve::parse_request(
                   R"({"method":"check","requirements":[""]})"),
               ParseError);
  EXPECT_THROW(
      serve::parse_request(
          R"({"method":"check","deadline_ms":-5,"requirements":["x is set"]})"),
      ParseError);
}

TEST(ServeProtocol, RendersResultWithEmbeddedCanonicalLine) {
  batch::TaskResult result;
  result.name = "doors";
  result.status = batch::TaskStatus::kConsistent;
  result.formulas = 2;
  result.inputs = 2;
  result.outputs = 2;
  result.seconds = 0.25;

  serve::Response response;
  response.id = "r1";
  response.kind = serve::ResponseKind::kResult;
  response.result = result;
  response.queue_seconds = 0.002;

  const std::string line = serve::render_response(response);
  const json::Value doc = json::parse(line);
  EXPECT_EQ(doc.find("id")->as_string(), "r1");
  EXPECT_EQ(doc.find("kind")->as_string(), "result");
  EXPECT_EQ(doc.find("status")->as_string(), "consistent");
  EXPECT_EQ(doc.find("queue_ms")->as_number(), 2.0);
  EXPECT_EQ(doc.find("run_ms")->as_number(), 250.0);
  // The canonical field is EXACTLY batch's canonical line, newline
  // stripped -- the byte-comparability bridge.
  std::string expected = batch::canonical_line(result);
  ASSERT_FALSE(expected.empty());
  expected.pop_back();  // '\n'
  EXPECT_EQ(doc.find("canonical")->as_string(), expected);
}

TEST(ServeProtocol, IgnoresUnknownKeysIncludingTheRetiredSubstrate) {
  // One engine decides every request: a "substrate" field left over from
  // older clients is ignored like any other unknown key, whatever its
  // value.
  const serve::ParsedRequest plain = serve::parse_request(
      R"({"method":"check","requirements":["x is set"]})");
  for (const char* value : {"symbolic", "bounded", "warp"}) {
    const serve::ParsedRequest parsed = serve::parse_request(
        std::string(R"({"method":"check","requirements":["x is set"],)") +
        R"("substrate":")" + value + R"(","colour":"blue"})");
    EXPECT_EQ(parsed.method, serve::Method::kCheck) << value;
    EXPECT_EQ(parsed.request.spec.requirements.size(),
              plain.request.spec.requirements.size())
        << value;
  }
}

TEST(ServeProtocol, RejectsPriorityAndDeadlineOutsideTheirRange) {
  const auto check_line = [](const std::string& fields) {
    return R"({"method":"check","requirements":["x is set"],)" + fields + "}";
  };
  // A priority outside int range used to wrap (3e9 and 1e300 both landed
  // at INT_MIN, jumping the queue); a fractional one was truncated.
  for (const char* priority : {"3000000000", "1e300", "-1e300", "1.5"}) {
    EXPECT_THROW(
        serve::parse_request(check_line(std::string(R"("priority":)") + priority)),
        ParseError)
        << priority;
  }
  // A deadline whose nanosecond count overflows the server clock.
  EXPECT_THROW(serve::parse_request(check_line(R"("deadline_ms":1e300)")),
               ParseError);
  // The extremes of the ranges still parse.
  EXPECT_EQ(serve::parse_request(check_line(R"("priority":-2147483648)"))
                .request.priority,
            -2147483647 - 1);
  EXPECT_EQ(serve::parse_request(check_line(R"("priority":2147483647)"))
                .request.priority,
            2147483647);
  EXPECT_DOUBLE_EQ(serve::parse_request(check_line(R"("deadline_ms":8.64e10)"))
                       .request.deadline_seconds,
                   8.64e7);
}

TEST(ServeProtocol, RendersRejectionAndErrorKinds) {
  serve::Response rejection;
  rejection.id = "r2";
  rejection.kind = serve::ResponseKind::kRejected;
  rejection.error = "admission queue is full";
  rejection.retry_after_seconds = 0.128;
  const json::Value doc = json::parse(serve::render_response(rejection));
  EXPECT_EQ(doc.find("kind")->as_string(), "rejected");
  EXPECT_EQ(doc.find("retry_after_ms")->as_number(), 128.0);

  const json::Value err = json::parse(serve::render_error("", "bad line"));
  EXPECT_EQ(err.find("kind")->as_string(), "error");
  EXPECT_EQ(err.find("error")->as_string(), "bad line");

  const json::Value pong = json::parse(serve::render_pong("p1"));
  EXPECT_EQ(pong.find("kind")->as_string(), "pong");
}

TEST(ServeProtocol, RendersStatsWithCacheSection) {
  serve::ServiceStats stats;
  stats.submitted = 5;
  stats.completed = 4;
  stats.workers = 2;
  cache::Store store({.shards = 4, .max_entries = 8});
  const json::Value doc =
      json::parse(serve::render_stats("s1", stats, &store));
  EXPECT_EQ(doc.find("submitted")->as_number(), 5.0);
  EXPECT_EQ(doc.find("workers")->as_number(), 2.0);
  ASSERT_NE(doc.find("cache"), nullptr);
  // Without a store the section is absent.
  const json::Value bare = json::parse(serve::render_stats("s2", stats, nullptr));
  EXPECT_EQ(bare.find("cache"), nullptr);
}

// ---- serve::Service ---------------------------------------------------------

TEST(ServeService, VerdictsAreByteIdenticalToBatch) {
  // The determinism bridge, in-process: the same specs through
  // batch::check and through the service must render identical canonical
  // lines (the CI smoke re-proves this across the TCP transport).
  std::vector<batch::SpecTask> specs;
  for (int index = 0; index < 6; ++index) {
    auto spec = speccc::difftest::generated_spec(11, index);
    specs.push_back({std::move(spec.name), std::move(spec.requirements)});
  }
  batch::BatchOptions batch_options;
  batch_options.jobs = 1;
  const batch::BatchReport report = batch::check(specs, batch_options);

  serve::ServiceOptions options;
  options.workers = 2;
  serve::Service service(options);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const serve::Response response =
        service.check(make_request("q" + std::to_string(i), specs[i]));
    ASSERT_EQ(response.kind, serve::ResponseKind::kResult) << response.error;
    EXPECT_EQ(batch::canonical_line(response.result),
              batch::canonical_line(report.results[i]))
        << specs[i].name;
  }
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, specs.size());
  EXPECT_EQ(stats.rejected, 0u);
}

TEST(ServeService, BackpressureRejectsWithRetryHintAndAnswersEveryRequest) {
  serve::ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 2;
  serve::Service service(options);

  // Block the single worker inside a completion callback so the queue
  // state is deterministic while we probe admission.
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  std::atomic<int> answered{0};
  ASSERT_TRUE(service.submit(make_request("blocker", door_spec()),
                            [&](serve::Response) {
                              started.set_value();
                              release_future.wait();
                              ++answered;
                            }));
  started.get_future().wait();  // worker is now parked; queue is empty

  // Fill the queue exactly to capacity...
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(service.submit(make_request("fill" + std::to_string(i),
                                            door_spec()),
                               [&](serve::Response r) {
                                 EXPECT_EQ(r.kind, serve::ResponseKind::kResult);
                                 ++answered;
                               }));
  }
  // ...and the next submission bounces with a positive retry hint.
  serve::Response rejection;
  EXPECT_FALSE(service.submit(make_request("overflow", door_spec()),
                              [&](serve::Response r) {
                                rejection = std::move(r);
                                ++answered;
                              }));
  EXPECT_EQ(rejection.kind, serve::ResponseKind::kRejected);
  EXPECT_EQ(rejection.id, "overflow");
  EXPECT_GT(rejection.retry_after_seconds, 0.0);

  release.set_value();
  service.shutdown();
  // Exactly one response per submission: 1 blocker + 2 fills + 1 rejection.
  EXPECT_EQ(answered.load(), 4);
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.accepted, 3u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.completed, 3u);
}

TEST(ServeService, LowerPriorityValueRunsFirstFifoWithinClass) {
  serve::ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 8;
  serve::Service service(options);

  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  ASSERT_TRUE(service.submit(make_request("blocker", door_spec()),
                            [&](serve::Response) {
                              started.set_value();
                              release_future.wait();
                            }));
  started.get_future().wait();

  std::mutex order_mutex;
  std::vector<std::string> order;
  const auto record = [&](serve::Response r) {
    std::lock_guard<std::mutex> lock(order_mutex);
    order.push_back(r.id);
  };
  // Enqueued while the worker is parked: urgent (0) beats normal (5);
  // same priority keeps submission order.
  ASSERT_TRUE(service.submit(make_request("slow-a", door_spec(), 5), record));
  ASSERT_TRUE(service.submit(make_request("urgent", door_spec(), 0), record));
  ASSERT_TRUE(service.submit(make_request("slow-b", door_spec(), 5), record));

  release.set_value();
  service.shutdown();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "urgent");
  EXPECT_EQ(order[1], "slow-a");
  EXPECT_EQ(order[2], "slow-b");
}

TEST(ServeService, ExpiredDeadlineAnswersDeadlineExceededNotSilence) {
  serve::ServiceOptions options;
  options.workers = 1;
  serve::Service service(options);

  // Park the worker so the deadline lapses while the request is queued.
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  ASSERT_TRUE(service.submit(make_request("blocker", door_spec()),
                            [&](serve::Response) {
                              started.set_value();
                              release_future.wait();
                            }));
  started.get_future().wait();

  std::promise<serve::Response> answered;
  ASSERT_TRUE(service.submit(
      make_request("doomed", door_spec(), 0, /*deadline_seconds=*/1e-9),
      [&](serve::Response r) { answered.set_value(std::move(r)); }));
  release.set_value();

  const serve::Response response = answered.get_future().get();
  EXPECT_EQ(response.kind, serve::ResponseKind::kDeadlineExceeded);
  EXPECT_EQ(response.id, "doomed");
  EXPECT_FALSE(response.error.empty());
  service.shutdown();
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  // The expired request was counted, answered, and never ran to a verdict.
  EXPECT_EQ(stats.completed, 1u);
}

TEST(ServeService, DefaultDeadlineAppliesToRequestsWithoutOne) {
  serve::ServiceOptions options;
  options.workers = 1;
  options.default_deadline_seconds = 1e-9;
  serve::Service service(options);

  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  ASSERT_TRUE(service.submit(make_request("blocker", door_spec(), 0,
                                          /*deadline_seconds=*/3600.0),
                            [&](serve::Response) {
                              started.set_value();
                              release_future.wait();
                            }));
  started.get_future().wait();
  // No explicit deadline: inherits the (immediately expiring) default.
  std::promise<serve::Response> answered;
  ASSERT_TRUE(
      service.submit(make_request("inherits", door_spec()),
                     [&](serve::Response r) { answered.set_value(std::move(r)); }));
  release.set_value();
  EXPECT_EQ(answered.get_future().get().kind,
            serve::ResponseKind::kDeadlineExceeded);
  service.shutdown();
}

TEST(ServeService, ShutdownDrainsQueuedWorkThenRejects) {
  serve::ServiceOptions options;
  options.workers = 2;
  options.queue_capacity = 16;
  serve::Service service(options);

  std::atomic<int> answered{0};
  constexpr int kRequests = 6;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(service.submit(
        make_request("q" + std::to_string(i), door_spec()),
        [&](serve::Response r) {
          EXPECT_EQ(r.kind, serve::ResponseKind::kResult);
          ++answered;
        }));
  }
  service.shutdown();  // must not return before every request answers
  EXPECT_EQ(answered.load(), kRequests);

  serve::Response late;
  EXPECT_FALSE(service.submit(make_request("late", door_spec()),
                              [&](serve::Response r) { late = std::move(r); }));
  EXPECT_EQ(late.kind, serve::ResponseKind::kRejected);
  EXPECT_EQ(service.stats().completed, static_cast<std::uint64_t>(kRequests));
}

TEST(ServeService, PerRequestCacheAccountingIsExact) {
  serve::ServiceOptions options;
  options.workers = 1;
  auto store = std::make_shared<cache::Store>();
  options.pipeline.cache = store;
  serve::Service service(options);

  const serve::Response first = service.check(make_request("c1", door_spec()));
  ASSERT_EQ(first.kind, serve::ResponseKind::kResult);
  EXPECT_GT(first.result.cache.misses(), 0u);  // cold store

  const serve::Response second = service.check(make_request("c2", door_spec()));
  ASSERT_EQ(second.kind, serve::ResponseKind::kResult);
  // The identical spec re-checked against a warm store: every artifact
  // hits, nothing misses -- and the thread-local deltas attribute that to
  // THIS request exactly.
  EXPECT_EQ(second.result.cache.misses(), 0u);
  EXPECT_GT(second.result.cache.hits(), 0u);
  // And the verdicts stayed byte-identical, warm or cold.
  EXPECT_EQ(batch::canonical_line(second.result),
            batch::canonical_line(first.result));
  service.shutdown();
}
