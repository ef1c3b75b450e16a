// speccc_serve: the long-running consistency-checking daemon.
//
// Speaks the NDJSON protocol of serve/protocol.hpp over loopback TCP: one
// JSON request per line in, one JSON response per line out, responses in
// completion order correlated by "id". The resident engine
// (serve/service.hpp) keeps a pool of warm per-worker pipelines and one
// shared memoization store (LRU -- a resident cache keeps hot
// specifications instead of cycling them out by age), admits work
// through a bounded priority queue with per-request deadlines, and
// rejects with a retry hint when the queue is full. Verdict lines embed
// the exact canonical rendering `speccc_batch --canonical` would print,
// so daemon and batch output are byte-comparable (the CI serve smoke
// diffs them).
//
//   $ ./speccc_serve --port 0 --port-file /tmp/speccc.port &
//   $ printf '{"method":"check","id":"r1","requirements":["..."]}\n' |
//       nc 127.0.0.1 $(cat /tmp/speccc.port)
//
// Options:
//   --port N              TCP port on 127.0.0.1 (default 7407; 0 picks an
//                         ephemeral port -- use --port-file to learn it)
//   --port-file FILE      write the bound port number to FILE once listening
//   --workers N           worker threads (default: hardware concurrency)
//   --queue-max N         admission queue bound (default 256); submissions
//                         beyond it are rejected with retry_after_ms
//   --default-deadline-ms N   deadline for requests that carry none
//                         (default 0 = unlimited)
//   --no-cache            run without the shared memoization store
//   --cache-max N         store entry cap per artifact kind (default 65536)
//   --cache-snapshot IN,OUT   load the persistent store snapshot IN before
//                         listening (warm start) and save the store to OUT
//                         after the shutdown drain. Either side may be
//                         empty. A rejected snapshot (truncated, corrupted,
//                         wrong version, wrong lexicon fingerprint) is a
//                         startup failure with a structured diagnostic,
//                         never a silent cold start. Incompatible with
//                         --no-cache
//   --strict-next         translate "next" as a real X operator
//   --diagnose            enumerate minimal correction sets (up to 4) for
//                         inconsistent specs, like speccc_batch --diagnose
//   --max-correction-sets N   cap the enumeration (implies --diagnose)
//   --quiet               suppress the startup/shutdown notices on stderr
//
// Shutdown: SIGINT or SIGTERM (or a {"method":"shutdown"} request) stops
// accepting connections, drains every queued and in-flight request --
// responses still go out -- then exits 0. Exit codes: 0 clean shutdown,
// 1 usage or startup failure (e.g. port taken).
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <unistd.h>

#include "cache/snapshot.hpp"
#include "cache/store.hpp"
#include "nlp/lexicon.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "util/diagnostics.hpp"

namespace {

int usage() {
  std::cerr
      << "usage: speccc_serve [--port N] [--port-file FILE] [--workers N]\n"
         "                    [--queue-max N] [--default-deadline-ms N]\n"
         "                    [--no-cache] [--cache-max N]\n"
         "                    [--cache-snapshot IN,OUT]\n"
         "                    [--strict-next]\n"
         "                    [--diagnose] [--max-correction-sets N]\n"
         "                    [--quiet]\n";
  return 1;
}

// Signal handling: the handler only sets a flag and pokes a self-pipe so
// the poll()-based accept loop wakes immediately; all draining happens on
// the main thread afterwards.
std::atomic<bool> g_stop{false};
int g_wake_pipe[2] = {-1, -1};

void on_signal(int) {
  g_stop.store(true, std::memory_order_relaxed);
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(g_wake_pipe[1], &byte, 1);
}

/// One client connection: read request lines until EOF, submit checks to
/// the service, write each response as it completes. Responses from
/// worker threads and inline errors interleave, so every send goes
/// through one mutex-guarded writer.
class Connection {
 public:
  Connection(speccc::serve::net::Socket socket, speccc::serve::Service& service,
             const speccc::cache::Store* store)
      : socket_(std::move(socket)), service_(service), store_(store) {}

  /// Returns true when the client asked for a server shutdown.
  bool run() {
    using namespace speccc::serve;
    net::LineReader reader(socket_);
    std::string line;
    bool shutdown_requested = false;
    while (!shutdown_requested && reader.read_line(line)) {
      if (line.empty() || line.find_first_not_of(" \t\r") == std::string::npos) {
        continue;
      }
      ParsedRequest parsed;
      try {
        parsed = parse_request(line);
      } catch (const std::exception& e) {
        send(render_error("", e.what()));
        continue;
      }
      switch (parsed.method) {
        case Method::kPing:
          send(render_pong(parsed.id));
          break;
        case Method::kStats:
          send(render_stats(parsed.id, service_.stats(), store_));
          break;
        case Method::kShutdown:
          send(render_shutting_down(parsed.id));
          shutdown_requested = true;
          break;
        case Method::kCheck: {
          ++in_flight_;
          service_.submit(std::move(parsed.request), [this](Response r) {
            send(render_response(r));
            --in_flight_;
          });
          break;
        }
      }
    }
    // Keep the socket alive until every submitted check has answered;
    // the callbacks capture `this`.
    while (in_flight_.load(std::memory_order_acquire) > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return shutdown_requested;
  }

 private:
  void send(std::string rendered) {
    rendered += '\n';
    std::lock_guard<std::mutex> lock(write_mutex_);
    socket_.send_all(rendered);  // peer gone = drop; service still drains
  }

  speccc::serve::net::Socket socket_;
  speccc::serve::Service& service_;
  const speccc::cache::Store* store_;
  std::mutex write_mutex_;
  std::atomic<int> in_flight_{0};
};

}  // namespace

int main(int argc, char** argv) {
  using namespace speccc;

  int port = 7407;
  std::string port_file;
  serve::ServiceOptions options;
  bool use_cache = true;
  bool quiet = false;
  std::size_t cache_max = cache::StoreOptions{}.max_entries;
  std::string snapshot_in;
  std::string snapshot_out;
  bool use_snapshot = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next_arg = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs an argument\n";
        std::exit(usage());
      }
      return argv[++i];
    };
    if (arg == "--port") {
      port = std::atoi(next_arg().c_str());
      if (port < 0 || port > 65535) {
        std::cerr << "--port must be in [0, 65535]\n";
        return usage();
      }
    } else if (arg == "--port-file") {
      port_file = next_arg();
    } else if (arg == "--workers") {
      options.workers = std::atoi(next_arg().c_str());
      if (options.workers < 1) {
        std::cerr << "--workers must be at least 1\n";
        return usage();
      }
    } else if (arg == "--queue-max") {
      const long long n = std::atoll(next_arg().c_str());
      if (n < 1) {
        std::cerr << "--queue-max must be at least 1\n";
        return usage();
      }
      options.queue_capacity = static_cast<std::size_t>(n);
    } else if (arg == "--default-deadline-ms") {
      options.default_deadline_seconds = std::atof(next_arg().c_str()) / 1000.0;
    } else if (arg == "--no-cache") {
      use_cache = false;
    } else if (arg == "--cache-max") {
      const long long n = std::atoll(next_arg().c_str());
      if (n < 1) {
        std::cerr << "--cache-max must be at least 1\n";
        return usage();
      }
      cache_max = static_cast<std::size_t>(n);
    } else if (arg == "--cache-snapshot") {
      const std::string spec = next_arg();
      const auto comma = spec.find(',');
      if (comma == std::string::npos) {
        std::cerr << "--cache-snapshot needs IN,OUT (either side may be "
                     "empty)\n";
        return usage();
      }
      snapshot_in = spec.substr(0, comma);
      snapshot_out = spec.substr(comma + 1);
      use_snapshot = true;
    } else if (arg == "--strict-next") {
      options.pipeline.translation.next_mode = translate::NextMode::kStrict;
    } else if (arg == "--diagnose") {
      if (options.pipeline.localization.max_correction_sets == 0) {
        options.pipeline.localization.max_correction_sets = 4;
      }
    } else if (arg == "--max-correction-sets") {
      const long long n = std::atoll(next_arg().c_str());
      if (n < 1) {
        std::cerr << "--max-correction-sets must be at least 1\n";
        return usage();
      }
      options.pipeline.localization.max_correction_sets =
          static_cast<std::size_t>(n);
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      return usage();
    }
  }

  if (use_snapshot && !use_cache) {
    std::cerr << "--cache-snapshot needs the cache (drop --no-cache)\n";
    return usage();
  }

  std::shared_ptr<cache::Store> store;
  if (use_cache) {
    cache::StoreOptions store_options;
    store_options.max_entries = cache_max;
    store = std::make_shared<cache::Store>(store_options);
    options.pipeline.cache = store;
  }
  if (use_snapshot && !snapshot_in.empty()) {
    try {
      const cache::SnapshotMeta meta = cache::load_snapshot(
          *store, snapshot_in, nlp::Lexicon::builtin().fingerprint());
      if (!quiet) {
        std::cerr << "speccc_serve: cache snapshot " << snapshot_in << ": "
                  << meta.entries << " entries loaded\n";
      }
    } catch (const cache::SnapshotError& e) {
      // A requested warm start that cannot be honored is a startup
      // failure, never a silent cold start.
      std::cerr << "error: cache snapshot rejected ("
                << cache::snapshot_error_kind_name(e.kind()) << "): "
                << e.what() << "\n";
      return 1;
    }
  }

  if (::pipe(g_wake_pipe) != 0) {
    std::cerr << "cannot create wake pipe\n";
    return 1;
  }
  struct sigaction sa = {};
  sa.sa_handler = on_signal;  // no SA_RESTART: accept() must return EINTR
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  std::optional<serve::net::Listener> listener;
  try {
    listener.emplace(static_cast<std::uint16_t>(port));
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    if (!out) {
      std::cerr << "cannot write " << port_file << "\n";
      return 1;
    }
    out << listener->port() << "\n";
  }

  serve::Service service(options);
  if (!quiet) {
    std::cerr << "speccc_serve: listening on 127.0.0.1:" << listener->port()
              << " (" << service.options().workers << " workers, queue "
              << service.options().queue_capacity << ", cache "
              << (store ? "on" : "off")
              << ")\n";
  }

  // Accept loop: poll on {listener, wake pipe} so a signal (or an NDJSON
  // shutdown request flipping g_stop) breaks the wait immediately.
  std::vector<std::thread> connections;
  while (!g_stop.load(std::memory_order_relaxed)) {
    pollfd fds[2] = {{listener->fd(), POLLIN, 0}, {g_wake_pipe[0], POLLIN, 0}};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0 || g_stop.load(std::memory_order_relaxed) ||
        (fds[1].revents & POLLIN) != 0) {
      break;
    }
    if ((fds[0].revents & POLLIN) == 0) continue;
    std::optional<serve::net::Socket> client = listener->accept_client();
    if (!client) continue;
    connections.emplace_back(
        [socket = std::move(*client), &service, &store]() mutable {
          Connection connection(std::move(socket), service, store.get());
          if (connection.run()) {
            g_stop.store(true, std::memory_order_relaxed);
            const char byte = 1;
            [[maybe_unused]] const ssize_t n = ::write(g_wake_pipe[1], &byte, 1);
          }
        });
  }

  // Drain: stop accepting (close the listener so clients see refusal, not
  // a hang), finish every connection -- each blocks until its submitted
  // checks have answered -- then drain the service queue itself.
  listener->close();
  if (!quiet) std::cerr << "speccc_serve: draining\n";
  for (std::thread& connection : connections) {
    if (connection.joinable()) connection.join();
  }
  service.shutdown();
  // The drain is complete: the store is quiescent, so the snapshot is a
  // consistent post-run image.
  if (use_snapshot && !snapshot_out.empty()) {
    try {
      cache::save_snapshot(*store, snapshot_out, nlp::Lexicon::builtin().fingerprint());
      if (!quiet) {
        std::cerr << "speccc_serve: cache snapshot written to " << snapshot_out
                  << "\n";
      }
    } catch (const cache::SnapshotError& e) {
      std::cerr << "error: cannot write cache snapshot ("
                << cache::snapshot_error_kind_name(e.kind()) << "): "
                << e.what() << "\n";
      return 1;
    }
  }
  if (!quiet) {
    const serve::ServiceStats stats = service.stats();
    std::cerr << "speccc_serve: done (" << stats.completed << " completed, "
              << stats.deadline_exceeded << " deadline-exceeded, "
              << stats.rejected << " rejected)\n";
  }
  return 0;
}
