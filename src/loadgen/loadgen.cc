/**
 * @file
 * Implementation of the open- and closed-loop load generators.
 */

#include "loadgen/loadgen.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <vector>

#include "base/threading.h"
#include "base/time_util.h"

namespace musuite {

namespace {

/** Completion-side state shared with in-flight callbacks: it outlives
 *  run(), so a completion arriving after the drain timeout finds the
 *  run closed rather than touching the caller's results. */
struct OpenLoopState
{
    explicit OpenLoopState(std::vector<RequestSpan> spans_in)
        : spans(std::move(spans_in))
    {}

    Mutex mutex{LockRank::loadgen, "loadgen"};
    std::vector<RequestSpan> spans GUARDED_BY(mutex);
    bool closed GUARDED_BY(mutex) = false;
    std::atomic<uint64_t> outstanding{0};
};

/** Poll interval while draining stragglers. */
constexpr int64_t kDrainPollNs = 100'000;

} // namespace

std::vector<LoadResult>
OpenLoopLoadGen::run(const AsyncIssue &issue)
{
    const std::vector<int64_t> schedule = loadgen::arrivalSchedule(
        options.shape, options.durationNs, options.seed);
    std::vector<RequestSpan> spans(schedule.size());
    for (uint64_t seq = 0; seq < schedule.size(); ++seq)
        spans[seq].scheduledNs = schedule[seq];
    auto state = std::make_shared<OpenLoopState>(std::move(spans));
    std::vector<int64_t> issued_ns(schedule.size());

    const int64_t start = clock.nowNanos();
    for (uint64_t seq = 0; seq < schedule.size(); ++seq) {
        // Latency is measured from the *scheduled* send time: if the
        // generator itself fell behind (service pushed back), the
        // wait counts against the service, not the generator.
        clock.sleepUntil(start + schedule[seq]);
        issued_ns[seq] = clock.nowNanos() - start;
        state->outstanding.fetch_add(1, std::memory_order_relaxed);
        issue(seq, [state, bound = &clock, start, seq](
                       RequestOutcome outcome) {
            {
                MutexLock guard(state->mutex);
                if (!state->closed) {
                    RequestSpan &span = state->spans[seq];
                    span.completedNs = bound->nowNanos() - start;
                    span.outcome = outcome;
                }
            }
            state->outstanding.fetch_sub(1, std::memory_order_release);
        });
    }

    // Drain stragglers.
    const int64_t drain_deadline =
        clock.nowNanos() + options.drainTimeoutNs;
    while (state->outstanding.load(std::memory_order_acquire) > 0) {
        const int64_t now = clock.nowNanos();
        if (now >= drain_deadline)
            break;
        clock.sleepUntil(std::min(now + kDrainPollNs, drain_deadline));
    }
    {
        MutexLock guard(state->mutex);
        state->closed = true;
        lastSpans = std::move(state->spans);
    }
    for (uint64_t seq = 0; seq < lastSpans.size(); ++seq)
        lastSpans[seq].issuedNs = issued_ns[seq];

    std::vector<int64_t> bounds = options.phaseBounds;
    if (bounds.empty())
        bounds = {0};
    std::vector<LoadResult> results(bounds.size());
    int64_t window_end = options.durationNs;
    for (const RequestSpan &span : lastSpans) {
        const size_t phase = size_t(
            std::upper_bound(bounds.begin() + 1, bounds.end(),
                             span.scheduledNs) -
            (bounds.begin() + 1));
        LoadResult &load = results[phase];
        load.issued++;
        if (!span.completed())
            continue;
        window_end = std::max(window_end, span.completedNs);
        if (span.outcome.ok) {
            load.latency.record(span.latencyNs());
            load.completed++;
            if (span.outcome.degraded)
                load.degraded++;
        } else {
            load.errors++;
            if (span.outcome.shed)
                load.shed++;
        }
    }
    for (size_t i = 0; i < results.size(); ++i) {
        const bool last = i + 1 == results.size();
        const int64_t from = bounds[i];
        const int64_t to = last ? options.durationNs : bounds[i + 1];
        LoadResult &load = results[i];
        load.offeredQps = options.shape.qpsAt((from + to) / 2);
        load.elapsedNs = (last ? window_end : to) - from;
        load.achievedQps =
            load.elapsedNs > 0
                ? double(load.completed) * 1e9 / double(load.elapsedNs)
                : 0.0;
    }
    return results;
}

LoadResult
ClosedLoopLoadGen::run(const SyncIssue &issue)
{
    struct WorkerState
    {
        Histogram latency;
        uint64_t completed = 0;
        uint64_t errors = 0;
        uint64_t issued = 0;
    };
    std::vector<WorkerState> states(size_t(options.workers));
    std::atomic<uint64_t> next_seq{0};
    const int64_t start = nowNanos();
    const int64_t deadline = start + options.durationNs;

    {
        std::vector<ScopedThread> workers;
        for (int w = 0; w < options.workers; ++w) {
            workers.emplace_back(
                "loadgen-" + std::to_string(w), [&, w] {
                    setCurrentThreadRole(ThreadRole::loadgen);
                    WorkerState &mine = states[size_t(w)];
                    while (nowNanos() < deadline) {
                        const uint64_t seq = next_seq.fetch_add(1);
                        const int64_t t0 = nowNanos();
                        const bool ok = issue(seq);
                        mine.issued++;
                        if (ok) {
                            mine.latency.record(nowNanos() - t0);
                            mine.completed++;
                        } else {
                            mine.errors++;
                        }
                    }
                });
        }
    } // Joins all workers.

    LoadResult result;
    for (const WorkerState &state : states) {
        result.latency.merge(state.latency);
        result.completed += state.completed;
        result.errors += state.errors;
        result.issued += state.issued;
    }
    result.elapsedNs = nowNanos() - start;
    result.achievedQps =
        result.elapsedNs > 0
            ? double(result.completed) * 1e9 / double(result.elapsedNs)
            : 0.0;
    return result;
}

double
findSaturationThroughput(const ClosedLoopLoadGen::SyncIssue &issue,
                         int max_workers, int64_t per_step_ns,
                         double plateau_fraction)
{
    double best = 0.0;
    for (int workers = 1; workers <= max_workers; workers *= 2) {
        ClosedLoopLoadGen::Options options;
        options.workers = workers;
        options.durationNs = per_step_ns;
        ClosedLoopLoadGen generator(options);
        const LoadResult result = generator.run(issue);
        if (result.achievedQps <= best * (1.0 + plateau_fraction) &&
            best > 0.0) {
            return best;
        }
        best = std::max(best, result.achievedQps);
    }
    return best;
}

} // namespace musuite
