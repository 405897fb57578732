#include "service/sharded_scheduler.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstddef>
#include <cstring>
#include <mutex>
#include <new>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "experiments/campaign_serde.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "service/fault_injection.hpp"
#include "stats/hash.hpp"

namespace rt::service {

namespace {

using experiments::CampaignError;
using experiments::CampaignErrorCode;
using experiments::CampaignResult;
using experiments::CampaignRunner;
using experiments::CampaignSpec;
using experiments::GridCell;

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kFrameMagic = 0x52542d43454c4c32ull;  // "RT-CELL2"
/// Frame header: {magic, cell index, payload length, payload FNV-1a}.
constexpr std::size_t kHeaderBytes = 4 * sizeof(std::uint64_t);
/// A RunResult frame is a few KB; anything near this is stream corruption.
constexpr std::uint64_t kMaxFramePayload = 1ull << 30;
/// Sentinel cell index for the one trailing frame a worker sends when the
/// tracer is armed: its payload is the worker's serialized span buffers,
/// not a RunResult. Cell indices are bounded by the grid size, so the
/// sentinel can never collide with a real cell.
constexpr std::uint64_t kTraceFrameCell = ~0ull;

/// The cross-process claim counter. It lives in a MAP_SHARED page, so it
/// must be a plain lock-free atomic: a lock-based fallback would put a
/// process-local mutex inside memory that several processes touch.
using ClaimCounter = std::atomic<std::uint64_t>;
static_assert(ClaimCounter::is_always_lock_free,
              "the shared claim counter must be lock-free");

/// Registry mirror of ShardStats, accumulated across every grid this
/// process runs. The chaos pass in bench/table_service asserts on these
/// instead of scraping stderr text.
struct ShardCounters {
  obs::Counter waves;
  obs::Counter worker_deaths;
  obs::Counter fork_failures;
  obs::Counter cells_recovered;
  obs::Counter deadline_expirations;
};

const ShardCounters& shard_counters() {
  static const ShardCounters c = [] {
    auto& reg = obs::MetricsRegistry::global();
    return ShardCounters{
        reg.counter("rt_shard_waves_total",
                    "Fork waves launched (one per sharded grid)"),
        reg.counter("rt_shard_worker_deaths_total",
                    "Forked workers that died or corrupted their stream"),
        reg.counter("rt_shard_fork_failures_total",
                    "fork()/pipe()/mmap() failures absorbed by degradation"),
        reg.counter("rt_shard_cells_recovered_in_process_total",
                    "Cells recovered by the threaded in-process path"),
        reg.counter("rt_shard_deadline_expirations_total",
                    "Grids cut short by a request deadline")};
  }();
  return c;
}

std::uint64_t payload_checksum(std::string_view payload) {
  return stats::fnv1a_str(stats::kFnv1aOffset, payload);
}

/// Milliseconds until `t`, clamped to [0, ~2^30].
int ms_until(Clock::time_point t) {
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      t - Clock::now())
                      .count();
  if (ms <= 0) return 0;
  return static_cast<int>(std::min<long long>(ms, 1ll << 30));
}

bool expired(const RunControl& ctl) {
  return ctl.deadline && Clock::now() >= *ctl.deadline;
}

bool write_frame(int fd, std::uint64_t cell, const std::string& payload) {
  const std::uint64_t header[4] = {kFrameMagic, cell, payload.size(),
                                   payload_checksum(payload)};
  return write_all_fd(FaultSite::kPipeWrite, fd, header, sizeof header) &&
         write_all_fd(FaultSite::kPipeWrite, fd, payload.data(),
                      payload.size());
}

const char* exception_message(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& ex) {
    return ex.what();
  } catch (...) {
    return "unknown exception";
  }
}

/// A grid's result slots and which cells have landed in them, shared by
/// the forked wave and the in-process path.
struct GridSlots {
  explicit GridSlots(const std::vector<CampaignSpec>& grid)
      : specs(grid),
        cells(experiments::grid_cells(grid)),
        filled(cells.size(), 0) {
    out.results.resize(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      out.results[i].spec = specs[i];
      out.results[i].runs.resize(
          static_cast<std::size_t>(std::max(specs[i].runs, 0)));
    }
  }

  /// Distinct slot per cell: concurrent fills of distinct cells need no
  /// lock.
  void fill(std::size_t cell_index, experiments::RunResult rr) {
    const GridCell& c = cells[cell_index];
    out.results[c.spec].runs[static_cast<std::size_t>(c.run)] =
        std::move(rr);
    filled[cell_index] = 1;
  }

  [[nodiscard]] std::vector<std::size_t> missing() const {
    std::vector<std::size_t> m;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (!filled[i]) m.push_back(i);
    }
    return m;
  }

  const std::vector<CampaignSpec>& specs;
  std::vector<GridCell> cells;
  std::vector<char> filled;
  GridOutcome out;
};

/// Runs the listed cells over a thread pool. A cell skipped at the
/// deadline or one that throws stays unfilled (the first exception is
/// kept for the error record).
void run_in_process(const CampaignRunner& runner, GridSlots& g,
                    const std::vector<std::size_t>& todo, unsigned threads,
                    const RunControl& ctl) {
  if (todo.empty()) return;
  if (threads == 0) threads = runtime::ThreadPool::default_threads();
  threads = std::min(threads, static_cast<unsigned>(todo.size()));
  std::mutex failure_mutex;
  runtime::ThreadPool pool(threads);
  pool.parallel_for(static_cast<int>(todo.size()), [&](int i) {
    if (expired(ctl)) return;  // cancel cleanly at the cell boundary
    const std::size_t ci = todo[static_cast<std::size_t>(i)];
    const GridCell& c = g.cells[ci];
    try {
      g.fill(ci, runner.run_one(g.specs[c.spec], c.run));
    } catch (...) {
      std::lock_guard<std::mutex> lock(failure_mutex);
      if (!g.out.first_failure) g.out.first_failure = std::current_exception();
    }
  });
}

/// Typed per-campaign error records for anything incomplete. An errored
/// campaign's runs are cleared: a result is complete or absent, never
/// silently partial (zero-filled RunResults would parse as real data).
GridOutcome finish(GridSlots& g, bool deadline_expired) {
  std::vector<int> spec_missing(g.specs.size(), 0);
  for (const std::size_t i : g.missing()) ++spec_missing[g.cells[i].spec];
  for (std::size_t s = 0; s < g.specs.size(); ++s) {
    if (spec_missing[s] == 0) continue;
    const std::size_t total = g.out.results[s].runs.size();
    g.out.results[s].runs.clear();
    CampaignError err;
    err.spec_index = s;
    if (deadline_expired) {
      err.code = CampaignErrorCode::kDeadlineExceeded;
      err.message = "deadline expired with " +
                    std::to_string(spec_missing[s]) + "/" +
                    std::to_string(total) + " cells missing";
    } else {
      err.code = CampaignErrorCode::kExecutionFailed;
      err.message = g.out.first_failure
                        ? exception_message(g.out.first_failure)
                        : "campaign cells missing";
    }
    g.out.errors.push_back(std::move(err));
  }
  return std::move(g.out);
}

/// Worker body: claim cells from the shared counter until the grid is
/// exhausted, streaming one frame per finished cell, then _exit (no
/// atexit/flush: nothing in the parent's state may be touched). A failed
/// pipe write stops the claiming, so a broken worker strands at most the
/// cell it was writing. Never returns.
[[noreturn]] void worker_main(const CampaignRunner& runner,
                              const GridSlots& g, ClaimCounter& next,
                              int wfd, int crash_after,
                              std::uint64_t worker_id) {
  FaultInjector::instance().set_worker(worker_id);
  // fork() duplicated the parent's span buffers; drop them or this worker
  // would ship the parent's pre-fork spans back as its own.
  obs::Tracer::global().clear();
  const std::uint64_t span_start = obs::Tracer::now_ns();
  bool ok = true;
  int sent = 0;
  try {
    const std::uint64_t n = g.cells.size();
    for (std::uint64_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      const GridCell& c = g.cells[i];
      const experiments::RunResult rr = runner.run_one(g.specs[c.spec], c.run);
      if (sent == crash_after) ::_exit(42);
      ok = write_frame(wfd, i, experiments::serialize_run_result(rr));
      if (!ok) break;
      ++sent;
    }
  } catch (...) {
    ::_exit(3);
  }
  if (ok && obs::Tracer::global().armed()) {
    // One trailing sentinel frame carries this worker's span buffers to
    // the parent. A worker that dies mid-stream simply never sends it —
    // its spans are lost, its cells recovered; observation stays passive.
    obs::record_span("shard_worker", "shard", span_start,
                     obs::Tracer::now_ns(), worker_id, "worker");
    ok = write_frame(wfd, kTraceFrameCell,
                     obs::Tracer::global().serialize_and_clear());
  }
  ::close(wfd);
  ::_exit(ok ? 0 : 4);
}

/// Parent-side view of one forked worker.
struct Worker {
  pid_t pid{-1};
  int fd{-1};              ///< read end of its pipe; -1 once closed
  std::uint64_t id{0};     ///< fork-order id: fault stream + trace lane
  std::string buf;         ///< received bytes not yet parsed into frames
  Clock::time_point silent_until{};
  bool dead{false};

  void close_pipe() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  /// Gives up on the worker: SIGKILL stops it claiming further cells it
  /// could never deliver; whatever it had claimed is recovered in-process.
  void drop() {
    close_pipe();
    if (pid > 0) ::kill(pid, SIGKILL);
    dead = true;
  }
};

/// Merges every complete frame at the front of `w.buf`. False on a
/// corrupt stream: bad magic or length, checksum mismatch, an
/// out-of-range or duplicate cell, or a payload that does not parse.
bool take_frames(Worker& w, GridSlots& g) {
  std::size_t pos = 0;
  while (w.buf.size() - pos >= kHeaderBytes) {
    std::uint64_t header[4];
    std::memcpy(header, w.buf.data() + pos, kHeaderBytes);
    if (header[0] != kFrameMagic || header[2] > kMaxFramePayload) return false;
    if (w.buf.size() - pos - kHeaderBytes < header[2]) break;  // partial
    const std::string_view payload(w.buf.data() + pos + kHeaderBytes,
                                   static_cast<std::size_t>(header[2]));
    if (payload_checksum(payload) != header[3]) return false;
    pos += kHeaderBytes + payload.size();
    if (header[1] == kTraceFrameCell) {
      // The worker's span buffers. Absorption is strict but failure is
      // absorbed observability-side (counted on the tracer) — a bad trace
      // frame must never invalidate good results.
      obs::Tracer::global().absorb(std::string(payload), w.id);
      continue;
    }
    if (header[1] >= g.cells.size() || g.filled[header[1]]) return false;
    try {
      g.fill(header[1], experiments::deserialize_run_result(payload));
    } catch (const experiments::SerdeError&) {
      return false;
    }
  }
  w.buf.erase(0, pos);
  return true;
}

/// The single fork wave. All pipes are created before the first fork, and
/// each child closes every descriptor except its own write end — otherwise
/// a sibling's surviving write-end copy would keep a dead worker's pipe
/// from ever reaching EOF. The parent drains every pipe in one poll loop:
/// draining them one after another would leave the undrained workers
/// blocked on full pipes, no longer claiming cells.
void run_wave(const CampaignRunner& runner, GridSlots& g, unsigned workers,
              const ShardOptions& opts, const RunControl& ctl,
              ShardStats& stats) {
  RT_TRACE_SPAN("shard_wave", "shard", workers, "workers");
  shard_counters().waves.inc();
  void* const shared = ::mmap(nullptr, sizeof(ClaimCounter),
                              PROT_READ | PROT_WRITE,
                              MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (shared == MAP_FAILED) {
    ++stats.fork_failures;  // no workers at all: everything runs in-process
    return;
  }
  ClaimCounter* const next = new (shared) ClaimCounter(0);

  std::vector<Worker> ws(workers);
  std::vector<int> wfds(workers, -1);
  for (unsigned s = 0; s < workers; ++s) {
    int fds[2];
    if (::pipe(fds) == 0) {
      ws[s].fd = fds[0];
      wfds[s] = fds[1];
    }
  }
  const auto budget = std::chrono::milliseconds(opts.read_timeout_ms);
  for (unsigned s = 0; s < workers; ++s) {
    Worker& w = ws[s];
    w.id = s + 1;  // deterministic: fault schedules and trace lanes
    if (wfds[s] < 0) {
      ++stats.fork_failures;  // pipe() failed; the other workers cover
      continue;
    }
    const pid_t pid = sys_fork();
    if (pid < 0) {
      // fork() failed (EAGAIN under pressure): the workers that did start
      // claim this one's share, and the in-process path covers the rest.
      ++stats.fork_failures;
      w.close_pipe();
      continue;
    }
    if (pid == 0) {
      for (unsigned t = 0; t < workers; ++t) {
        if (ws[t].fd >= 0) ::close(ws[t].fd);
        if (t != s && wfds[t] >= 0) ::close(wfds[t]);
      }
      const int crash_after = static_cast<int>(s) == opts.crash_shard
                                  ? opts.crash_after_cells
                                  : -1;
      worker_main(runner, g, *next, wfds[s], crash_after, w.id);
    }
    w.pid = pid;
    w.silent_until = Clock::now() + budget;
  }
  for (const int fd : wfds) {
    if (fd >= 0) ::close(fd);
  }

  std::vector<struct pollfd> pfds;
  std::vector<Worker*> polled;
  std::vector<char> chunk(1 << 16);
  while (true) {
    if (expired(ctl)) {
      // Kill every remaining worker instead of waiting out its stream.
      stats.deadline_expired = true;
      for (Worker& w : ws) {
        if (w.fd >= 0) w.drop();
      }
      break;
    }
    pfds.clear();
    polled.clear();
    const Clock::time_point now = Clock::now();
    Clock::time_point wake = ctl.deadline ? *ctl.deadline
                                          : Clock::time_point::max();
    for (Worker& w : ws) {
      if (w.fd < 0) continue;
      if (now >= w.silent_until) {
        w.drop();  // silent past its budget: hung or wedged
        continue;
      }
      wake = std::min(wake, w.silent_until);
      pfds.push_back({w.fd, POLLIN, 0});
      polled.push_back(&w);
    }
    if (pfds.empty()) break;
    const int pr = sys_poll(FaultSite::kPipePoll, pfds.data(), pfds.size(),
                            std::max(1, ms_until(wake)));
    if (pr < 0) {
      if (errno == EINTR) continue;
      // The parent can no longer watch its workers: give them all up.
      for (Worker* w : polled) w->drop();
      break;
    }
    for (std::size_t k = 0; k < pfds.size(); ++k) {
      if (pfds[k].revents == 0) continue;
      Worker& w = *polled[k];
      const ssize_t n =
          sys_read(FaultSite::kPipeRead, w.fd, chunk.data(), chunk.size());
      if (n < 0) {
        if (errno != EINTR) w.drop();
        continue;
      }
      if (n == 0) {
        // EOF: the stream is over. Leftover bytes are a truncated frame.
        if (w.buf.empty()) {
          w.close_pipe();
        } else {
          w.drop();
        }
        continue;
      }
      w.silent_until = Clock::now() + budget;
      w.buf.append(chunk.data(), static_cast<std::size_t>(n));
      if (!take_frames(w, g)) w.drop();
    }
  }

  for (Worker& w : ws) {
    if (w.pid < 0) continue;
    int status = 0;
    while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!(WIFEXITED(status) && WEXITSTATUS(status) == 0)) w.dead = true;
    if (w.dead) ++stats.worker_deaths;
  }
  ::munmap(shared, sizeof(ClaimCounter));
}

}  // namespace

GridOutcome run_in_process_checked(const CampaignRunner& runner,
                                   const std::vector<CampaignSpec>& specs,
                                   unsigned threads, const RunControl& ctl) {
  GridSlots g(specs);
  run_in_process(runner, g, g.missing(), threads, ctl);
  return finish(g, expired(ctl));
}

ShardedCampaignScheduler::ShardedCampaignScheduler(
    const CampaignRunner& runner, ShardOptions opts)
    : runner_(runner), opts_(opts) {}

GridOutcome ShardedCampaignScheduler::run_all_checked(
    const std::vector<CampaignSpec>& specs, const RunControl& ctl) const {
  stats_ = ShardStats{};
  GridSlots g(specs);
  if (g.cells.empty()) return std::move(g.out);

  unsigned workers = opts_.workers == 0
                         ? runtime::ThreadPool::default_threads()
                         : opts_.workers;
  workers = std::max(
      1u, std::min(workers, static_cast<unsigned>(g.cells.size())));
  stats_.workers = workers;
  run_wave(runner_, g, workers, opts_, ctl, stats_);

  // Whatever no worker delivered — a dead worker's claimed cells, or every
  // cell on total fork failure — runs in the parent over `workers`
  // threads. Each cell writes its pre-assigned slot, so the results are
  // still bit-identical; a cell that throws or misses the deadline stays
  // unfilled and becomes a typed error.
  const std::vector<std::size_t> missing = g.missing();
  if (!missing.empty() && !expired(ctl)) {
    RT_TRACE_SPAN("shard_fallback", "shard",
                  static_cast<std::uint64_t>(missing.size()), "cells");
    stats_.cells_recovered_in_process = static_cast<int>(missing.size());
    run_in_process(runner_, g, missing, workers, ctl);
  }
  if (expired(ctl)) stats_.deadline_expired = true;

  // Mirror this grid's ShardStats into the process-wide registry (the
  // wave counter is bumped live inside run_wave). Forked workers keep
  // their metric increments to themselves — only their trace buffers are
  // shipped back — so registry counts are parent-process events, matching
  // FaultInjector::injected_total() semantics.
  const ShardCounters& c = shard_counters();
  if (stats_.worker_deaths > 0) c.worker_deaths.inc(stats_.worker_deaths);
  if (stats_.fork_failures > 0) c.fork_failures.inc(stats_.fork_failures);
  if (stats_.cells_recovered_in_process > 0) {
    c.cells_recovered.inc(
        static_cast<std::uint64_t>(stats_.cells_recovered_in_process));
  }
  if (stats_.deadline_expired) c.deadline_expirations.inc();

  return finish(g, stats_.deadline_expired);
}

std::vector<CampaignResult> ShardedCampaignScheduler::run_all(
    const std::vector<CampaignSpec>& specs) const {
  GridOutcome out = run_all_checked(specs, RunControl{});
  // Preserve the historical contract: no deadline means the grid either
  // completes in full or the first underlying failure propagates.
  if (out.first_failure) std::rethrow_exception(out.first_failure);
  return std::move(out.results);
}

}  // namespace rt::service
