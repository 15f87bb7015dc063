// The discovery serving daemon: a DiscoveryService behind the blocking
// HttpServer, wrapped with POSIX signal-driven lifecycle so process
// managers get the contract they expect:
//
//   valentine_serve --port 0 --port-file /tmp/port --workers 4 &
//   curl -fsS "http://127.0.0.1:$(cat /tmp/port)/healthz"
//   kill -TERM %1        # graceful drain: finish/cancel in-flight,
//                        # flush --metrics-out, exit 0
//
// SIGTERM and SIGINT are *blocked* in every thread and received
// synchronously via sigwait() in main — no async-signal-safety
// gymnastics, no self-pipe in the handler; the server's own drain
// machinery does the actual work.
//
// Usage: valentine_serve [--host A] [--port N] [--port-file PATH]
//                        [--workers N] [--queue N] [--drain-ms D]
//                        [--read-timeout-ms D] [--write-timeout-ms D]
//                        [--metrics-out PATH] [--store DIR]
//                        [--access-log PATH] [--retry-after S]
//                        [--trace-buffer N]
//
// --store DIR attaches the persistent artifact store: table
// registrations resolve their column sketches from DIR by content
// fingerprint (building and persisting on miss), so restarts and
// registry rebuilds skip the sketch builds.
//
// --access-log PATH streams one JSONL line per completed request
// (trace id, route, status, bytes, queue-wait, handler time); the
// request-telemetry spine behind it also powers /statusz and /tracez.
//
// Exits 0 on clean drain, 1 on startup failure, 2 on usage errors.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "io/artifact_store.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "serve/service.h"

namespace valentine {
namespace serve {
namespace {

struct DaemonOptions {
  ServerOptions server;
  std::string port_file;
  std::string metrics_out;
  std::string store_dir;
  std::string access_log;
  size_t trace_buffer = 64;
  double drain_ms = 2000.0;
};

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--host A] [--port N] [--port-file PATH] [--workers N]\n"
      "          [--queue N] [--drain-ms D] [--read-timeout-ms D]\n"
      "          [--write-timeout-ms D] [--metrics-out PATH] [--store DIR]\n"
      "          [--access-log PATH] [--retry-after S] [--trace-buffer N]\n",
      argv0);
  return 2;
}

bool ParseArgs(int argc, char** argv, DaemonOptions* opt) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--host" && (v = next())) {
      opt->server.host = v;
    } else if (arg == "--port" && (v = next())) {
      opt->server.port = static_cast<uint16_t>(std::atoi(v));
    } else if (arg == "--port-file" && (v = next())) {
      opt->port_file = v;
    } else if (arg == "--workers" && (v = next())) {
      opt->server.workers = static_cast<size_t>(std::atol(v));
    } else if (arg == "--queue" && (v = next())) {
      opt->server.queue_capacity = static_cast<size_t>(std::atol(v));
    } else if (arg == "--drain-ms" && (v = next())) {
      opt->drain_ms = std::atof(v);
    } else if (arg == "--read-timeout-ms" && (v = next())) {
      opt->server.read_timeout_ms = std::atoi(v);
    } else if (arg == "--write-timeout-ms" && (v = next())) {
      opt->server.write_timeout_ms = std::atoi(v);
    } else if (arg == "--metrics-out" && (v = next())) {
      opt->metrics_out = v;
    } else if (arg == "--store" && (v = next())) {
      opt->store_dir = v;
    } else if (arg == "--access-log" && (v = next())) {
      opt->access_log = v;
    } else if (arg == "--retry-after" && (v = next())) {
      opt->server.retry_after_s = std::atoi(v);
    } else if (arg == "--trace-buffer" && (v = next())) {
      opt->trace_buffer = static_cast<size_t>(std::atol(v));
    } else {
      return false;
    }
  }
  return true;
}

int RunDaemon(const DaemonOptions& opt) {
  MetricsRegistry metrics;
  metrics.SetHelp("valentine_serve_shed_total",
                  "Connections refused by the admission queue");
  metrics.SetHelp("valentine_serve_requests_total",
                  "Requests handled, by route and HTTP code");

  std::unique_ptr<ArtifactStore> store;
  if (!opt.store_dir.empty()) {
    store = std::make_unique<ArtifactStore>(opt.store_dir);
  }

  ServeTelemetry::Options telemetry_opt;
  telemetry_opt.metrics = &metrics;
  telemetry_opt.trace_buffer_capacity = opt.trace_buffer;
  telemetry_opt.access_log_path = opt.access_log;
  ServeTelemetry telemetry(telemetry_opt);
  if (!telemetry.status().ok()) {
    std::fprintf(stderr, "valentine_serve: %s\n",
                 telemetry.status().message().c_str());
    return 1;
  }

  ServiceOptions service_opt;
  service_opt.metrics = &metrics;
  service_opt.store = store.get();
  service_opt.telemetry = &telemetry;
  service_opt.retry_after_s = opt.server.retry_after_s;
  DiscoveryService service(service_opt);

  ServerOptions server_opt = opt.server;
  server_opt.metrics = &metrics;
  server_opt.telemetry = &telemetry;
  HttpServer server(&service, server_opt);

  // Block the lifecycle signals *before* Start() spawns threads so
  // every worker inherits the mask and sigwait below is the only
  // receiver.
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGTERM);
  sigaddset(&mask, SIGINT);
  if (pthread_sigmask(SIG_BLOCK, &mask, nullptr) != 0) {
    std::fprintf(stderr, "valentine_serve: pthread_sigmask failed\n");
    return 1;
  }

  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "valentine_serve: %s\n",
                 started.message().c_str());
    return 1;
  }
  std::printf("valentine_serve: listening on %s:%u (workers=%zu queue=%zu)\n",
              server_opt.host.c_str(), server.port(), server_opt.workers,
              server_opt.queue_capacity);
  std::fflush(stdout);
  if (!opt.port_file.empty()) {
    Status wrote =
        WriteTextFile(std::to_string(server.port()) + "\n", opt.port_file);
    if (!wrote.ok()) {
      std::fprintf(stderr, "valentine_serve: %s\n", wrote.message().c_str());
      server.Shutdown(0.0);
      return 1;
    }
  }

  int sig = 0;
  while (sigwait(&mask, &sig) != 0) {
  }
  std::printf("valentine_serve: received %s, draining (%.0f ms budget)\n",
              sig == SIGTERM ? "SIGTERM" : "SIGINT", opt.drain_ms);
  std::fflush(stdout);
  server.Shutdown(opt.drain_ms);

  if (!opt.metrics_out.empty()) {
    Status wrote =
        WriteTextFile(metrics.RenderPrometheusText(), opt.metrics_out);
    if (!wrote.ok()) {
      std::fprintf(stderr, "valentine_serve: %s\n", wrote.message().c_str());
      return 1;
    }
  }
  std::printf(
      "valentine_serve: drained (admitted=%llu shed=%llu), exiting\n",
      static_cast<unsigned long long>(server.admitted_total()),
      static_cast<unsigned long long>(server.shed_total()));
  return 0;
}

}  // namespace
}  // namespace serve
}  // namespace valentine

int main(int argc, char** argv) {
  valentine::serve::DaemonOptions opt;
  if (!valentine::serve::ParseArgs(argc, argv, &opt)) {
    return valentine::serve::Usage(argv[0]);
  }
  return valentine::serve::RunDaemon(opt);
}
