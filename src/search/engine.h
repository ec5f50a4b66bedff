// The enterprise text search engine (the paper's SE) plus the query log the
// curious adversary analyzes after the fact.
#ifndef TOPPRIV_SEARCH_ENGINE_H_
#define TOPPRIV_SEARCH_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "corpus/corpus.h"
#include "index/inverted_index.h"
#include "search/scorer.h"
#include "search/topk.h"
#include "text/vocabulary.h"
#include "util/deadline.h"
#include "util/status.h"

namespace toppriv::search {

/// One query term after collapsing duplicates: the term and its query term
/// frequency.
struct QueryTerm {
  text::TermId term = 0;
  uint32_t qtf = 0;
};

/// How a query is evaluated against an index. Term-at-a-time (kTAAT) is
/// the only strategy: it touches every posting of every query term, and it
/// measured faster than document-at-a-time pruning and than splitting the
/// index into in-process partitions at every corpus size this repo serves
/// (see docs/ARCHITECTURE.md, "Retrieval is TAAT only"). The enum stays so
/// engines can report what they run.
enum class EvalStrategy { kTAAT };

/// Reusable evaluation scratch: a contiguous score accumulator with one
/// slot per document, plus the touched-document list that makes clearing
/// O(touched) instead of O(num_documents). Reusing one scratch across
/// queries removes the per-query hash-map allocation that used to dominate
/// Evaluate. Not thread-safe: one scratch per thread (the scratch-less
/// Evaluate overloads keep a thread-local one).
class EvalScratch {
 public:
  EvalScratch() = default;
  EvalScratch(const EvalScratch&) = delete;
  EvalScratch& operator=(const EvalScratch&) = delete;

 private:
  friend std::vector<ScoredDoc> AccumulateTopK(const index::InvertedIndex&,
                                               const CollectionStats&,
                                               const Scorer&,
                                               const std::vector<QueryTerm>&,
                                               const std::vector<uint32_t>&,
                                               size_t, EvalScratch*,
                                               const std::vector<char>*,
                                               const util::Deadline*);

  /// Grows the accumulator to cover `num_documents` and resets any state a
  /// previous (possibly abandoned) query left behind.
  void Prepare(size_t num_documents);

  std::vector<double> scores_;
  std::vector<char> is_touched_;
  std::vector<corpus::DocId> touched_;
};

/// Collapses a bag of term ids to unique (term, qtf) pairs in ascending
/// term order. The sorted order fixes the floating-point accumulation order
/// of every evaluation path — the static index or any live segment — so
/// results are bit-identical across engines (and independent of any
/// hash-map iteration order).
std::vector<QueryTerm> CollapseQuery(const std::vector<text::TermId>& terms);

/// The shared term-at-a-time evaluation core: accumulates `query` over
/// `index`'s posting lists into `scratch`, scoring with the collection-wide
/// `stats` and the per-term document frequencies `dfs` (parallel to
/// `query`; SearchEngine passes the index's own df, LiveSearchEngine the
/// snapshot's GLOBAL df so every segment scores identically), then
/// extracts the top `k`. Result doc ids are local to `index`; the live
/// engine lifts them to its snapshot's dense id space before merging.
/// Both engines running literally the same arithmetic is what the
/// bit-parity suites lock down.
///
/// `exclude`, when given, is a per-document tombstone mask (parallel to
/// `index`'s local doc-id space; nonzero = excluded): masked documents
/// never enter the top-k. The live index evaluates sealed segments with
/// their delete bitmaps here; since scoring a document reads only its own
/// posting tf, its own length and the collection-wide stats/df, skipping
/// masked documents changes no surviving document's score bits — which is
/// what keeps the live engine bit-identical to a static build of the
/// surviving corpus.
///
/// `deadline`, when given, is polled once per decoded block. On expiry the
/// core abandons the query and returns an EMPTY list — a partial top-k is
/// never surfaced, so accepted (non-expired) queries stay bit-identical to
/// a run with no deadline at all. Callers that passed a deadline must
/// re-check Expired() afterward and map the abandonment to
/// kDeadlineExceeded (EvaluateWithOptions does).
std::vector<ScoredDoc> AccumulateTopK(const index::InvertedIndex& index,
                                      const CollectionStats& stats,
                                      const Scorer& scorer,
                                      const std::vector<QueryTerm>& query,
                                      const std::vector<uint32_t>& dfs,
                                      size_t k, EvalScratch* scratch,
                                      const std::vector<char>* exclude =
                                          nullptr,
                                      const util::Deadline* deadline =
                                          nullptr);

/// kDeadlineExceeded (and a search.deadline_exceeded count) when
/// `deadline` has expired; OK when it has not or is null. Every
/// EvaluateWithOptions checks it before and after evaluating, and discards
/// the results of a call that expired either way — so the accept/reject
/// decision is a pure function of the deadline, not of how fast the engine
/// ran relative to the check sites.
util::Status CheckDeadline(const util::Deadline* deadline);

/// One entry in the engine-side query log: the adversary's view. Queries
/// arrive as bags of term ids; the engine cannot tell user queries from
/// ghost queries (that is the point of TopPriv).
struct LoggedQuery {
  uint64_t sequence = 0;
  /// Cycle tag: queries submitted together share a tag. The paper's threat
  /// model lets the adversary group a cycle (they arrive back-to-back), so
  /// the log keeps the grouping explicit; adversary/log_segmentation.h
  /// additionally models an adversary who must RECOVER the grouping from
  /// arrival times alone.
  uint64_t cycle_id = 0;
  /// Arrival time in seconds (simulation clock; 0 when untimed).
  double timestamp = 0.0;
  std::vector<text::TermId> terms;
};

/// Append-only log of everything the engine processed.
class QueryLog {
 public:
  /// Takes the term vector by value and moves it into the entry: an lvalue
  /// caller pays exactly one copy (into the parameter), an rvalue caller
  /// none — the old const-ref signature forced a copy into a temporary
  /// LoggedQuery on every call.
  void Record(uint64_t cycle_id, std::vector<text::TermId> terms,
              double timestamp = 0.0) {
    log_.push_back(
        LoggedQuery{next_seq_++, cycle_id, timestamp, std::move(terms)});
  }
  /// Pre-grows the log for a known batch (a protection cycle, a workload
  /// replay) so bulk submission does not re-allocate per query.
  void Reserve(size_t additional) { log_.reserve(log_.size() + additional); }
  const std::vector<LoggedQuery>& entries() const { return log_; }
  size_t size() const { return log_.size(); }
  void Clear() {
    log_.clear();
    next_seq_ = 0;
  }

 private:
  std::vector<LoggedQuery> log_;
  uint64_t next_seq_ = 0;
};

/// Per-call knobs for the failure-aware evaluation entry point.
struct QueryOptions {
  /// Cooperative deadline/cancellation, polled at block-decode granularity
  /// inside the eval core and across the live engine's segment fan-out.
  /// Null = none. The Deadline's cancel flag is shared across the whole
  /// fan-out, so one expiry observation stops every sibling segment.
  const util::Deadline* deadline = nullptr;
};

/// Abstract ranked-retrieval engine: what the privacy layer (TrustedClient,
/// SessionProtector) and the serving driver program against. Implemented by
/// SearchEngine over a static index and by LiveSearchEngine over a live
/// index's snapshots; the live parity suite proves the two interchangeable
/// bit for bit, so every layer above can swap one for the other freely.
class QueryEngine {
 public:
  virtual ~QueryEngine() = default;

  /// Processes a query (bag of term ids), returning the top-k documents.
  /// Every call is recorded in the query log under `cycle_id`.
  virtual std::vector<ScoredDoc> Search(const std::vector<text::TermId>& terms,
                                        size_t k, uint64_t cycle_id = 0) = 0;

  /// Evaluation without logging (used internally and by tests that compare
  /// against the logged path). Uses thread-local scratch space, so
  /// concurrent callers (the serving driver's sessions) are safe.
  virtual std::vector<ScoredDoc> Evaluate(
      const std::vector<text::TermId>& terms, size_t k) const = 0;

  /// Deadline-aware evaluation. An accepted query returns results
  /// BIT-identical to Evaluate (the deadline machinery never perturbs
  /// surviving arithmetic); an expired or cancelled one returns
  /// kDeadlineExceeded and its partial work is discarded, never surfaced.
  /// The base implementation brackets Evaluate with CheckDeadline (coarse:
  /// a stuck engine still runs to completion); the real engines override
  /// it to poll inside the eval core and across the segment fan-out, so a
  /// wedged evaluation costs at most one block decode past the deadline.
  virtual util::StatusOr<std::vector<ScoredDoc>> EvaluateWithOptions(
      const std::vector<text::TermId>& terms, size_t k,
      const QueryOptions& options) const;

  virtual const QueryLog& query_log() const = 0;
  virtual QueryLog& mutable_query_log() = 0;

  /// The corpus being searched (clients analyze raw text against its
  /// vocabulary).
  virtual const corpus::Corpus& corpus() const = 0;

  /// Scorer in use (for logs and benches).
  virtual const Scorer& scorer() const = 0;

  /// Evaluation strategy in use (for logs and benches).
  virtual EvalStrategy eval_strategy() const = 0;
};

/// Similarity search engine over a monolithic inverted index.
///
/// The engine is deliberately unmodified by the privacy layer: TopPriv's
/// design constraint is that it works against existing engines (unlike the
/// PDX baseline, which requires a homomorphic scoring protocol).
class SearchEngine : public QueryEngine {
 public:
  /// The engine borrows the corpus and index; both must outlive it.
  SearchEngine(const corpus::Corpus& corpus, const index::InvertedIndex& index,
               std::unique_ptr<Scorer> scorer,
               EvalStrategy strategy = EvalStrategy::kTAAT);

  SearchEngine(const SearchEngine&) = delete;
  SearchEngine& operator=(const SearchEngine&) = delete;

  std::vector<ScoredDoc> Search(const std::vector<text::TermId>& terms,
                                size_t k, uint64_t cycle_id = 0) override;

  std::vector<ScoredDoc> Evaluate(const std::vector<text::TermId>& terms,
                                  size_t k) const override;

  /// Same, accumulating into the caller's scratch (identical results).
  std::vector<ScoredDoc> Evaluate(const std::vector<text::TermId>& terms,
                                  size_t k, EvalScratch* scratch) const;

  /// Deadline threaded into the eval core (block-decode granularity).
  util::StatusOr<std::vector<ScoredDoc>> EvaluateWithOptions(
      const std::vector<text::TermId>& terms, size_t k,
      const QueryOptions& options) const override;

  const QueryLog& query_log() const override { return log_; }
  QueryLog& mutable_query_log() override { return log_; }

  const corpus::Corpus& corpus() const override { return corpus_; }
  const index::InvertedIndex& index() const { return index_; }
  const Scorer& scorer() const override { return *scorer_; }

  EvalStrategy eval_strategy() const override { return EvalStrategy::kTAAT; }

 private:
  /// The one evaluation body: canonical query plan with the index's own
  /// document frequencies, then AccumulateTopK (polling `deadline` when
  /// non-null).
  std::vector<ScoredDoc> EvaluateBody(const std::vector<text::TermId>& terms,
                                      size_t k, EvalScratch* scratch,
                                      const util::Deadline* deadline) const;

  const corpus::Corpus& corpus_;
  const index::InvertedIndex& index_;
  std::unique_ptr<Scorer> scorer_;
  CollectionStats stats_;
  QueryLog log_;
};

}  // namespace toppriv::search

#endif  // TOPPRIV_SEARCH_ENGINE_H_
