// Deterministic fault-injecting QueryEngine wrapper — the query-side twin
// of util::FaultInjectingFileSystem.
//
// Wraps any QueryEngine and injects scripted faults on the deadline-aware
// evaluation path, keyed by CALL INDEX (the n-th EvaluateWithOptions call
// observes the fault scheduled at n), so a chaos schedule composed with a
// deterministic workload replays bit-identically. Time is virtual: delays
// and hangs ADVANCE a shared ManualClock instead of sleeping, which keeps
// chaos runs instant and makes "stuck engine" a modelable event — a kHang
// pushes the clock past any finite deadline, and the inner engine's next
// block-granular poll observes expiry and unwinds. That is the tentpole
// property under test: a hang costs the session one deadline, never a
// wedge.
//
// Faults apply ONLY to EvaluateWithOptions. The plain Search/Evaluate
// paths forward untouched — they have no typed-status channel to report a
// fault through, and the chaos harness drives the deadline-aware path
// exclusively.
#ifndef TOPPRIV_SEARCH_FAULT_INJECTING_ENGINE_H_
#define TOPPRIV_SEARCH_FAULT_INJECTING_ENGINE_H_

#include <cstdint>
#include <vector>

#include "search/engine.h"
#include "util/deadline.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace toppriv::search {

/// One scripted fault, armed for a specific evaluation call.
struct EngineFault {
  enum class Kind {
    /// Advance the clock by `delay_nanos` before evaluating: the query may
    /// still make its deadline (slow engine) or miss it (too slow).
    kDelay,
    /// Fail the call with kUnavailable without evaluating (e.g. a replica
    /// refusing traffic).
    kError,
    /// Advance the clock past ANY finite deadline before evaluating: the
    /// model of a wedged engine. Only observable through a deadline — with
    /// an infinite deadline the query still completes (and proves the
    /// wrapper never perturbs results).
    kHang,
  };
  /// 0-based EvaluateWithOptions call index the fault fires on.
  uint64_t at_call = 0;
  Kind kind = Kind::kError;
  int64_t delay_nanos = 0;  // kDelay only
};

/// Thread-safe wrapper: concurrent query fleets share one instance and the
/// call counter hands out fault slots under a mutex.
class FaultInjectingEngine : public QueryEngine {
 public:
  /// Borrows the inner engine and the clock (both must outlive the
  /// wrapper). Deadlines composed with this engine must be built on the
  /// SAME ManualClock, or delays/hangs would be invisible to them.
  FaultInjectingEngine(QueryEngine* inner, util::ManualClock* clock)
      : inner_(inner), clock_(clock) {}

  FaultInjectingEngine(const FaultInjectingEngine&) = delete;
  FaultInjectingEngine& operator=(const FaultInjectingEngine&) = delete;

  /// Arms `fault` (multiple faults may be scheduled; at most one fires per
  /// call — the first match wins and is consumed).
  void ScheduleFault(EngineFault fault) EXCLUDES(mu_);
  void ClearFaults() EXCLUDES(mu_);

  /// Evaluations attempted / faults actually fired so far.
  uint64_t calls() const EXCLUDES(mu_);
  uint64_t faults_fired() const EXCLUDES(mu_);

  // QueryEngine — fault-free forwards.
  std::vector<ScoredDoc> Search(const std::vector<text::TermId>& terms,
                                size_t k, uint64_t cycle_id = 0) override {
    return inner_->Search(terms, k, cycle_id);
  }
  std::vector<ScoredDoc> Evaluate(const std::vector<text::TermId>& terms,
                                  size_t k) const override {
    return inner_->Evaluate(terms, k);
  }
  const QueryLog& query_log() const override { return inner_->query_log(); }
  QueryLog& mutable_query_log() override {
    return inner_->mutable_query_log();
  }
  const corpus::Corpus& corpus() const override { return inner_->corpus(); }
  const Scorer& scorer() const override { return inner_->scorer(); }
  EvalStrategy eval_strategy() const override {
    return inner_->eval_strategy();
  }

  /// The faulted path. A call with no armed fault forwards verbatim, so
  /// accepted queries stay bit-identical to the unwrapped engine.
  util::StatusOr<std::vector<ScoredDoc>> EvaluateWithOptions(
      const std::vector<text::TermId>& terms, size_t k,
      const QueryOptions& options) const override EXCLUDES(mu_);

 private:
  QueryEngine* const inner_;
  util::ManualClock* const clock_;
  mutable util::Mutex mu_;
  mutable std::vector<EngineFault> faults_ GUARDED_BY(mu_);
  mutable uint64_t calls_ GUARDED_BY(mu_) = 0;
  mutable uint64_t faults_fired_ GUARDED_BY(mu_) = 0;
};

}  // namespace toppriv::search

#endif  // TOPPRIV_SEARCH_FAULT_INJECTING_ENGINE_H_
