#include "serve/protocol.hpp"

#include <cmath>
#include <limits>

#include "serve/json.hpp"
#include "util/diagnostics.hpp"

namespace speccc::serve {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw util::ParseError("protocol: " + what);
}

std::string field_string(const json::Value& object, std::string_view key) {
  const json::Value* v = object.find(key);
  if (v == nullptr) fail("missing \"" + std::string(key) + "\"");
  if (v->kind() != json::Kind::kString) {
    fail("\"" + std::string(key) + "\" must be a string");
  }
  return v->as_string();
}

std::string optional_string(const json::Value& object, std::string_view key) {
  const json::Value* v = object.find(key);
  if (v == nullptr || v->is_null()) return {};
  if (v->kind() != json::Kind::kString) {
    fail("\"" + std::string(key) + "\" must be a string");
  }
  return v->as_string();
}

double optional_number(const json::Value& object, std::string_view key,
                       double fallback) {
  const json::Value* v = object.find(key);
  if (v == nullptr || v->is_null()) return fallback;
  if (v->kind() != json::Kind::kNumber) {
    fail("\"" + std::string(key) + "\" must be a number");
  }
  return v->as_number();
}

/// "requirements": an array of sentences, each either a plain string
/// (ids default to R1, R2, ... in order) or {"id": ..., "text": ...}.
std::vector<translate::RequirementText> parse_requirements(
    const json::Value& object) {
  const json::Value* v = object.find("requirements");
  if (v == nullptr) fail("missing \"requirements\"");
  if (v->kind() != json::Kind::kArray) {
    fail("\"requirements\" must be an array");
  }
  std::vector<translate::RequirementText> out;
  out.reserve(v->as_array().size());
  std::size_t index = 0;
  for (const json::Value& item : v->as_array()) {
    ++index;
    translate::RequirementText req;
    if (item.kind() == json::Kind::kString) {
      req.id = "R" + std::to_string(index);
      req.text = item.as_string();
    } else if (item.kind() == json::Kind::kObject) {
      req.text = field_string(item, "text");
      req.id = optional_string(item, "id");
      if (req.id.empty()) req.id = "R" + std::to_string(index);
    } else {
      fail("requirement " + std::to_string(index) +
           " must be a string or an {\"id\",\"text\"} object");
    }
    if (req.text.empty()) {
      fail("requirement " + std::to_string(index) + " has empty text");
    }
    out.push_back(std::move(req));
  }
  if (out.empty()) fail("\"requirements\" is empty");
  return out;
}

long long to_ms(double seconds) {
  return static_cast<long long>(std::llround(seconds * 1000.0));
}

void put_ms(json::Object& o, const char* key, double seconds) {
  o[key] = json::Value(static_cast<std::int64_t>(to_ms(seconds)));
}

/// Strip canonical_line's trailing newline for embedding as a JSON string;
/// clients re-append '\n' when reconstructing batch-comparable output.
std::string canonical_field(const batch::TaskResult& result) {
  std::string line = batch::canonical_line(result);
  if (!line.empty() && line.back() == '\n') line.pop_back();
  return line;
}

json::Object cache_object(const cache::StatsSnapshot& c) {
  json::Object o;
  o["l1_hits"] = json::Value(static_cast<std::int64_t>(c.l1_hits));
  o["l1_misses"] = json::Value(static_cast<std::int64_t>(c.l1_misses));
  o["l2_hits"] = json::Value(static_cast<std::int64_t>(c.l2_hits));
  o["l2_misses"] = json::Value(static_cast<std::int64_t>(c.l2_misses));
  o["evictions"] = json::Value(static_cast<std::int64_t>(c.evictions));
  return o;
}

std::string render(const json::Object& object) {
  std::string out;
  json::write(out, json::Value(object));
  return out;
}

}  // namespace

ParsedRequest parse_request(std::string_view line) {
  const json::Value doc = json::parse(line);
  if (doc.kind() != json::Kind::kObject) fail("request must be an object");

  ParsedRequest parsed;
  parsed.id = optional_string(doc, "id");

  const std::string method = field_string(doc, "method");
  if (method == "ping") {
    parsed.method = Method::kPing;
  } else if (method == "stats") {
    parsed.method = Method::kStats;
  } else if (method == "shutdown") {
    parsed.method = Method::kShutdown;
  } else if (method == "check") {
    parsed.method = Method::kCheck;
    Request& request = parsed.request;
    request.spec.name = optional_string(doc, "name");
    if (request.spec.name.empty()) request.spec.name = "spec";
    if (parsed.id.empty()) parsed.id = request.spec.name;
    request.id = parsed.id;
    request.spec.requirements = parse_requirements(doc);
    // Casting a double outside int's range is undefined, so an unchecked
    // 3e9 could land anywhere in the queue order.
    const double priority = optional_number(doc, "priority", 0.0);
    if (!(priority == std::floor(priority) &&
          priority >= std::numeric_limits<int>::min() &&
          priority <= std::numeric_limits<int>::max())) {
      fail("\"priority\" must be an integer in int range");
    }
    request.priority = static_cast<int>(priority);
    const double deadline_ms = optional_number(doc, "deadline_ms", 0.0);
    if (!(deadline_ms >= 0.0 && deadline_ms / 1000.0 <= kMaxDeadlineSeconds)) {
      fail("\"deadline_ms\" must be >= 0 and fit the server clock");
    }
    request.deadline_seconds = deadline_ms / 1000.0;
  } else {
    fail("unknown method \"" + method + "\"");
  }
  return parsed;
}

std::string render_response(const Response& response) {
  json::Object o;
  o["id"] = json::Value(response.id);
  o["kind"] = json::Value(response_kind_name(response.kind));
  switch (response.kind) {
    case ResponseKind::kRejected:
      o["error"] = json::Value(response.error);
      put_ms(o, "retry_after_ms", response.retry_after_seconds);
      break;
    case ResponseKind::kError:
      o["error"] = json::Value(response.error);
      break;
    case ResponseKind::kDeadlineExceeded:
      o["error"] = json::Value(response.error);
      put_ms(o, "queue_ms", response.queue_seconds);
      put_ms(o, "run_ms", response.result.seconds);
      break;
    case ResponseKind::kResult: {
      const batch::TaskResult& r = response.result;
      o["name"] = json::Value(r.name);
      o["status"] = json::Value(batch::status_name(r.status));
      o["canonical"] = json::Value(canonical_field(r));
      put_ms(o, "queue_ms", response.queue_seconds);
      put_ms(o, "run_ms", r.seconds);
      // Per-request cache accounting (thread-local deltas); all-zero when
      // the server runs without a store, so only emitted when non-zero.
      const cache::StatsSnapshot& c = r.cache;
      if (c.hits() + c.misses() + c.evictions > 0) {
        o["cache"] = json::Value(cache_object(c));
      }
      break;
    }
  }
  return render(o);
}

std::string render_error(std::string_view id, std::string_view message) {
  json::Object o;
  o["id"] = json::Value(std::string(id));
  o["kind"] = json::Value("error");
  o["error"] = json::Value(std::string(message));
  return render(o);
}

std::string render_pong(std::string_view id) {
  json::Object o;
  o["id"] = json::Value(std::string(id));
  o["kind"] = json::Value("pong");
  return render(o);
}

std::string render_stats(std::string_view id, const ServiceStats& stats,
                         const cache::Store* store) {
  json::Object o;
  o["id"] = json::Value(std::string(id));
  o["kind"] = json::Value("stats");
  o["submitted"] = json::Value(static_cast<std::int64_t>(stats.submitted));
  o["accepted"] = json::Value(static_cast<std::int64_t>(stats.accepted));
  o["rejected"] = json::Value(static_cast<std::int64_t>(stats.rejected));
  o["completed"] = json::Value(static_cast<std::int64_t>(stats.completed));
  o["deadline_exceeded"] =
      json::Value(static_cast<std::int64_t>(stats.deadline_exceeded));
  o["errors"] = json::Value(static_cast<std::int64_t>(stats.errors));
  o["queue_depth"] = json::Value(static_cast<std::int64_t>(stats.queue_depth));
  o["workers"] = json::Value(static_cast<std::int64_t>(stats.workers));
  if (store != nullptr) {
    json::Object c = cache_object(store->stats());
    c["entries"] = json::Value(static_cast<std::int64_t>(store->size()));
    o["cache"] = json::Value(std::move(c));
  }
  return render(o);
}

std::string render_shutting_down(std::string_view id) {
  json::Object o;
  o["id"] = json::Value(std::string(id));
  o["kind"] = json::Value("shutting-down");
  return render(o);
}

}  // namespace speccc::serve
