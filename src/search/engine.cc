#include "search/engine.h"

#include <algorithm>

#include "util/check.h"
#include "util/metrics.h"

namespace toppriv::search {

void EvalScratch::Prepare(size_t num_documents) {
  if (scores_.size() < num_documents) {
    // Scores need no initialization: a slot is only read after its
    // first-touch assignment below.
    scores_.resize(num_documents);
    is_touched_.resize(num_documents, 0);
  }
  // Self-healing reset in case a previous query was abandoned mid-flight.
  for (corpus::DocId doc : touched_) is_touched_[doc] = 0;
  touched_.clear();
}

std::vector<QueryTerm> CollapseQuery(const std::vector<text::TermId>& terms) {
  // Sort then run-length collapse. Queries are a handful of terms, so this
  // beats any hash map — and unlike a hash map its order is canonical, not
  // an artifact of bucket history, which the live engine's bit-parity
  // contract relies on.
  std::vector<text::TermId> sorted = terms;
  std::sort(sorted.begin(), sorted.end());
  std::vector<QueryTerm> query;
  query.reserve(sorted.size());
  for (text::TermId t : sorted) {
    if (!query.empty() && query.back().term == t) {
      ++query.back().qtf;
    } else {
      query.push_back(QueryTerm{t, 1});
    }
  }
  return query;
}

std::vector<ScoredDoc> AccumulateTopK(const index::InvertedIndex& index,
                                      const CollectionStats& stats,
                                      const Scorer& scorer,
                                      const std::vector<QueryTerm>& query,
                                      const std::vector<uint32_t>& dfs,
                                      size_t k, EvalScratch* scratch,
                                      const std::vector<char>* exclude,
                                      const util::Deadline* deadline) {
  TOPPRIV_CHECK_EQ(query.size(), dfs.size());
  if (query.empty() || k == 0) return {};
  // Hoisted so the common no-tombstone case (exclude == nullptr, every
  // static index and clean segment) pays one null check per posting.
  const char* excluded = exclude != nullptr ? exclude->data() : nullptr;
  TOPPRIV_DCHECK(exclude == nullptr ||
                 exclude->size() == index.num_documents());

  scratch->Prepare(index.num_documents());

  // Term-at-a-time accumulation over posting lists into the contiguous
  // per-document array; documents containing none of the query terms are
  // never touched (the scalability property the paper's PIR discussion
  // contrasts against). The first touch assigns 0.0 before accumulating so
  // a slot's history cannot leak between queries. Postings stream through
  // one stack-resident PostingBlock, batch-decoded 128 at a time.
  std::vector<double>& scores = scratch->scores_;
  std::vector<char>& is_touched = scratch->is_touched_;
  std::vector<corpus::DocId>& touched = scratch->touched_;
  index::PostingBlock block;
  // Instrumentation accumulates in locals and flushes ONCE per call:
  // per-posting atomic traffic would swamp the <5% overhead budget.
  uint64_t blocks_decoded = 0;
  uint64_t postings_scored = 0;
  for (size_t qi = 0; qi < query.size(); ++qi) {
    const index::PostingList& list = index.Postings(query[qi].term);
    if (list.empty() || dfs[qi] == 0) continue;
    const uint32_t df = dfs[qi];
    const uint32_t qtf = query[qi].qtf;
    for (size_t b = 0; b < list.num_blocks(); ++b) {
      // Cooperative cancellation, one check per 128-posting block. An
      // abandoned query surfaces NOTHING (the scratch self-heals on the
      // next Prepare), so a deadline can never leak a partial top-k.
      if (deadline != nullptr && deadline->Expired()) {
        TOPPRIV_COUNTER_ADD("search.taat.blocks_decoded", blocks_decoded);
        TOPPRIV_COUNTER_ADD("search.taat.postings_scored", postings_scored);
        return {};
      }
      list.DecodeBlock(b, &block);
      ++blocks_decoded;
      postings_scored += block.count;
      for (uint32_t i = 0; i < block.count; ++i) {
        const corpus::DocId doc = block.docs[i];
        TOPPRIV_DCHECK(doc < scores.size());
        if (excluded != nullptr && excluded[doc]) continue;
        if (!is_touched[doc]) {
          is_touched[doc] = 1;
          touched.push_back(doc);
          scores[doc] = 0.0;
        }
        scores[doc] += scorer.TermScore(stats, index.DocLength(doc),
                                        block.tfs[i], df, qtf);
      }
    }
  }

  TopK topk(k);
  for (corpus::DocId doc : touched) {
    topk.Offer(doc, scorer.Normalize(stats, index.DocLength(doc), scores[doc]));
  }
  // Leave the scratch clean for the next query (O(touched), not O(docs)).
  for (corpus::DocId doc : touched) is_touched[doc] = 0;
  touched.clear();
  TOPPRIV_COUNTER_ADD("search.taat.blocks_decoded", blocks_decoded);
  TOPPRIV_COUNTER_ADD("search.taat.postings_scored", postings_scored);
  return topk.Finish();
}

util::Status CheckDeadline(const util::Deadline* deadline) {
  if (deadline != nullptr && deadline->Expired()) {
    TOPPRIV_COUNTER_INC("search.deadline_exceeded");
    return util::Status::DeadlineExceeded("query deadline expired");
  }
  return util::Status::Ok();
}

util::StatusOr<std::vector<ScoredDoc>> QueryEngine::EvaluateWithOptions(
    const std::vector<text::TermId>& terms, size_t k,
    const QueryOptions& options) const {
  // Coarse default for engines without an internal poll point.
  TOPPRIV_RETURN_IF_ERROR(CheckDeadline(options.deadline));
  std::vector<ScoredDoc> results = Evaluate(terms, k);
  TOPPRIV_RETURN_IF_ERROR(CheckDeadline(options.deadline));
  return results;
}

SearchEngine::SearchEngine(const corpus::Corpus& corpus,
                           const index::InvertedIndex& index,
                           std::unique_ptr<Scorer> scorer,
                           EvalStrategy /*strategy*/)
    : corpus_(corpus),
      index_(index),
      scorer_(std::move(scorer)),
      stats_(CollectionStats::Of(index)) {
  TOPPRIV_CHECK(scorer_ != nullptr);
}

std::vector<ScoredDoc> SearchEngine::Search(
    const std::vector<text::TermId>& terms, size_t k, uint64_t cycle_id) {
  log_.Record(cycle_id, terms);
  return Evaluate(terms, k);
}

namespace {
// One scratch per thread, shared by every scratch-less entry point.
thread_local EvalScratch tls_scratch;
}  // namespace

std::vector<ScoredDoc> SearchEngine::Evaluate(
    const std::vector<text::TermId>& terms, size_t k) const {
  return EvaluateBody(terms, k, &tls_scratch, /*deadline=*/nullptr);
}

std::vector<ScoredDoc> SearchEngine::Evaluate(
    const std::vector<text::TermId>& terms, size_t k,
    EvalScratch* scratch) const {
  return EvaluateBody(terms, k, scratch, /*deadline=*/nullptr);
}

util::StatusOr<std::vector<ScoredDoc>> SearchEngine::EvaluateWithOptions(
    const std::vector<text::TermId>& terms, size_t k,
    const QueryOptions& options) const {
  TOPPRIV_RETURN_IF_ERROR(CheckDeadline(options.deadline));
  std::vector<ScoredDoc> results =
      EvaluateBody(terms, k, &tls_scratch, options.deadline);
  TOPPRIV_RETURN_IF_ERROR(CheckDeadline(options.deadline));
  return results;
}

std::vector<ScoredDoc> SearchEngine::EvaluateBody(
    const std::vector<text::TermId>& terms, size_t k, EvalScratch* scratch,
    const util::Deadline* deadline) const {
  if (terms.empty() || k == 0) return {};
  const std::vector<QueryTerm> query = CollapseQuery(terms);
  std::vector<uint32_t> dfs(query.size());
  for (size_t qi = 0; qi < query.size(); ++qi) {
    dfs[qi] = index_.DocFreq(query[qi].term);
  }
  return AccumulateTopK(index_, stats_, *scorer_, query, dfs, k, scratch,
                        /*exclude=*/nullptr, deadline);
}

}  // namespace toppriv::search
