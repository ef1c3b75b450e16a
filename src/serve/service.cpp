#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <future>
#include <utility>

namespace speccc::serve {

namespace {

/// Pop order: lowest (priority, seq) first. std::push_heap/pop_heap keep
/// the *largest* element at the front, so "greater" here means "served
/// later".
struct ItemLater {
  bool operator()(const auto& a, const auto& b) const {
    if (a.request.priority != b.request.priority) {
      return a.request.priority > b.request.priority;
    }
    return a.seq > b.seq;
  }
};

double seconds_between(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

const char* response_kind_name(ResponseKind kind) {
  switch (kind) {
    case ResponseKind::kResult: return "result";
    case ResponseKind::kRejected: return "rejected";
    case ResponseKind::kDeadlineExceeded: return "deadline-exceeded";
    case ResponseKind::kError: return "error";
  }
  return "unknown";
}

Service::Service(ServiceOptions options) : options_(std::move(options)) {
  if (options_.workers <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    options_.workers = hw == 0 ? 1 : static_cast<int>(hw);
  }
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  runner_options_.pipeline = options_.pipeline;
  queue_.reserve(options_.queue_capacity);
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

Service::~Service() { shutdown(); }

double Service::retry_hint_locked() const {
  // Expected time for the backlog to clear one slot: the whole queue's
  // worth of work spread over the workers. Floored so a hint of ~0 never
  // invites a hot retry loop.
  const double backlog = static_cast<double>(queue_.size() + 1);
  const double hint =
      ewma_run_seconds_ * backlog / static_cast<double>(options_.workers);
  return std::max(hint, 0.01);
}

bool Service::submit(Request request, Callback done) {
  Response rejection;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    ++submitted_;
    if (!draining_ && queue_.size() < options_.queue_capacity) {
      ++accepted_;
      Item item;
      item.seq = next_seq_++;
      item.enqueued_at = Clock::now();
      const double deadline =
          std::min(request.deadline_seconds > 0.0
                       ? request.deadline_seconds
                       : options_.default_deadline_seconds,
                   kMaxDeadlineSeconds);
      if (deadline > 0.0) {
        item.has_deadline = true;
        item.deadline_at =
            item.enqueued_at + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(deadline));
      }
      item.request = std::move(request);
      item.done = std::move(done);
      queue_.push_back(std::move(item));
      std::push_heap(queue_.begin(), queue_.end(), ItemLater{});
      cv_.notify_one();
      return true;
    }
    ++rejected_;
    rejection.id = std::move(request.id);
    rejection.kind = ResponseKind::kRejected;
    rejection.error = draining_ ? "service is shutting down"
                                : "admission queue is full";
    rejection.retry_after_seconds = draining_ ? 0.0 : retry_hint_locked();
  }
  if (done) done(std::move(rejection));
  return false;
}

Response Service::check(Request request) {
  std::promise<Response> promise;
  std::future<Response> future = promise.get_future();
  submit(std::move(request),
         [&promise](Response r) { promise.set_value(std::move(r)); });
  return future.get();
}

void Service::shutdown() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (draining_ && workers_.empty()) return;
    draining_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

ServiceStats Service::stats() const {
  std::unique_lock<std::mutex> lock(mutex_);
  ServiceStats s;
  s.submitted = submitted_;
  s.accepted = accepted_;
  s.rejected = rejected_;
  s.completed = completed_;
  s.deadline_exceeded = deadline_exceeded_;
  s.errors = errors_;
  s.queue_depth = queue_.size();
  s.workers = options_.workers;
  return s;
}

void Service::worker_loop(int worker_id) {
  batch::TaskRunner runner(worker_id, runner_options_);
  for (;;) {
    Item item;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return draining_ || !queue_.empty(); });
      if (queue_.empty()) return;  // draining and nothing left
      std::pop_heap(queue_.begin(), queue_.end(), ItemLater{});
      item = std::move(queue_.back());
      queue_.pop_back();
    }
    process(std::move(item), runner);
  }
}

void Service::process(Item item, batch::TaskRunner& runner) {
  const Clock::time_point picked_up = Clock::now();

  Response response;
  response.id = item.request.id;
  response.queue_seconds = seconds_between(item.enqueued_at, picked_up);

  double budget_seconds = 0.0;
  bool expired_in_queue = false;
  if (item.has_deadline) {
    budget_seconds = seconds_between(picked_up, item.deadline_at);
    expired_in_queue = budget_seconds <= 0.0;
  }

  if (expired_in_queue) {
    // Never silently dropped: the caller hears that its deadline passed
    // while the request was still queued.
    response.kind = ResponseKind::kDeadlineExceeded;
    response.error = "deadline expired while queued";
  } else {
    batch::RunLimits limits;
    limits.budget_seconds = budget_seconds;  // 0 = unlimited
    batch::TaskResult result = runner.run(item.request.spec, limits);
    if (result.status == batch::TaskStatus::kBudgetExhausted &&
        item.has_deadline) {
      response.kind = ResponseKind::kDeadlineExceeded;
      response.error = "deadline expired while running";
    } else {
      response.kind = ResponseKind::kResult;
    }
    response.result = std::move(result);
  }

  {
    std::unique_lock<std::mutex> lock(mutex_);
    switch (response.kind) {
      case ResponseKind::kResult: ++completed_; break;
      case ResponseKind::kDeadlineExceeded: ++deadline_exceeded_; break;
      default: ++errors_; break;
    }
    if (response.kind == ResponseKind::kResult) {
      // EWMA over completed runs only; expired-in-queue answers carry no
      // run-time signal.
      constexpr double kAlpha = 0.2;
      ewma_run_seconds_ =
          (1.0 - kAlpha) * ewma_run_seconds_ + kAlpha * response.result.seconds;
    }
  }

  if (item.done) item.done(std::move(response));
}

}  // namespace speccc::serve
