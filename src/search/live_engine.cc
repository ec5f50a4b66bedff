#include "search/live_engine.h"

#include <utility>

#include "util/check.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace toppriv::search {

LiveSearchEngine::LiveSearchEngine(const corpus::Corpus& corpus,
                                   index::live::LiveIndex& live,
                                   std::unique_ptr<Scorer> scorer,
                                   EvalStrategy /*strategy*/,
                                   util::ThreadPool* eval_pool)
    : corpus_(corpus),
      live_(live),
      scorer_(std::move(scorer)),
      eval_pool_(eval_pool) {
  TOPPRIV_CHECK(scorer_ != nullptr);
}

std::vector<ScoredDoc> LiveSearchEngine::Search(
    const std::vector<text::TermId>& terms, size_t k, uint64_t cycle_id) {
  log_.Record(cycle_id, terms);
  return Evaluate(terms, k);
}

std::vector<ScoredDoc> LiveSearchEngine::Evaluate(
    const std::vector<text::TermId>& terms, size_t k) const {
  return EvaluateOn(*live_.Acquire(), terms, k);
}

util::StatusOr<std::vector<ScoredDoc>> LiveSearchEngine::EvaluateWithOptions(
    const std::vector<text::TermId>& terms, size_t k,
    const QueryOptions& options) const {
  TOPPRIV_RETURN_IF_ERROR(CheckDeadline(options.deadline));
  std::vector<ScoredDoc> results =
      EvaluateOn(*live_.Acquire(), terms, k, options.deadline);
  TOPPRIV_RETURN_IF_ERROR(CheckDeadline(options.deadline));
  return results;
}

std::vector<ScoredDoc> LiveSearchEngine::EvaluateOn(
    const index::live::IndexSnapshot& snapshot,
    const std::vector<text::TermId>& terms, size_t k,
    const util::Deadline* deadline) const {
  if (terms.empty() || k == 0) return {};

  // One canonical query plan for every segment: canonical term order,
  // GLOBAL live document frequencies, global live collection stats.
  const std::vector<QueryTerm> query = CollapseQuery(terms);
  std::vector<uint32_t> dfs(query.size());
  for (size_t qi = 0; qi < query.size(); ++qi) {
    dfs[qi] = snapshot.DocFreq(query[qi].term);
  }
  CollectionStats stats;
  stats.num_documents = snapshot.num_documents();
  stats.avg_doc_length = snapshot.avg_doc_length();
  stats.total_tokens = snapshot.total_tokens();

  // Scatter over the segments — sequentially, or fanned out on the
  // borrowed pool. Either way each iteration fills only its own slot with
  // its own thread-local scratch, and the merge below walks the slots in
  // segment order on this thread, so results are bit-identical across
  // thread counts (see file comment).
  const size_t n = snapshot.num_segments();
  std::vector<std::vector<ScoredDoc>> per_segment(n);
  TOPPRIV_TRACE_SPAN(fanout_span, "search.segment_fanout");
  TOPPRIV_SCOPED_TIMER_US("search.segment_fanout_us");
  TOPPRIV_HISTOGRAM_OBSERVE("search.segment_fanout_width", n,
                            util::CountBuckets());
  const auto eval_segment = [&](size_t s) {
    static thread_local EvalScratch scratch;
    const index::live::SnapshotSegment& ss = snapshot.segment(s);
    per_segment[s] = AccumulateTopK(ss.segment->index(), stats, *scorer_,
                                    query, dfs, k, &scratch, ss.deleted.get(),
                                    deadline);
  };
  if (eval_pool_ != nullptr && n > 1) {
    eval_pool_->ParallelFor(n, eval_segment);
  } else {
    for (size_t s = 0; s < n; ++s) eval_segment(s);
  }

  // Deterministic gather: lift local ids into the snapshot's dense space
  // in segment order; the global top-k is a subset of the union of
  // per-segment top-k lists.
  TopK merged(k);
  for (size_t s = 0; s < n; ++s) {
    const index::live::SnapshotSegment& ss = snapshot.segment(s);
    for (const ScoredDoc& sd : per_segment[s]) {
      merged.Offer(ss.DenseId(sd.doc), sd.score);
    }
  }
  return merged.Finish();
}

}  // namespace toppriv::search
