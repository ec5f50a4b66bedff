// Similarity scoring functions for the vector space model.
//
// The paper assumes a conventional similarity engine ("the classical vector
// space model [7]"); we provide TF-IDF cosine, Okapi BM25 and a Dirichlet-
// smoothed query-likelihood scorer so the substrate matches what enterprise
// engines actually run. Scorers are stateless w.r.t. queries and consume
// COLLECTION-level statistics only, passed explicitly as a CollectionStats:
// every segment of a live index scores against the snapshot's global
// statistics ("global IDF"), which is what keeps live rankings
// bit-identical to the static engine's.
#ifndef TOPPRIV_SEARCH_SCORER_H_
#define TOPPRIV_SEARCH_SCORER_H_

#include <memory>
#include <string>

#include "index/inverted_index.h"

namespace toppriv::search {

/// Collection-wide statistics a scorer consumes. For a static index these
/// mirror the index's own accessors; for a live index they are the
/// snapshot's aggregates over every live document.
struct CollectionStats {
  size_t num_documents = 0;
  double avg_doc_length = 0.0;
  uint64_t total_tokens = 0;

  static CollectionStats Of(const index::InvertedIndex& index) {
    return CollectionStats{index.num_documents(), index.avg_doc_length(),
                           index.total_tokens()};
  }
};

/// Term-at-a-time scoring interface: contribution of one (term, posting)
/// pair to a document's accumulator.
class Scorer {
 public:
  virtual ~Scorer() = default;

  /// Score contribution of a term occurring `tf` times in a document of
  /// `doc_length` tokens, where the term occurs in `df` documents of the
  /// whole collection and appears `qtf` times in the query.
  virtual double TermScore(const CollectionStats& stats, uint32_t doc_length,
                           uint32_t tf, uint32_t df, uint32_t qtf) const = 0;

  /// Optional per-document normalization applied after accumulation.
  virtual double Normalize(const CollectionStats& stats, uint32_t doc_length,
                           double accumulated) const {
    (void)stats;
    (void)doc_length;
    return accumulated;
  }

  /// Scorer name for logs and benches.
  virtual std::string Name() const = 0;
};

/// Classic lnc.ltc-style TF-IDF with cosine length normalization
/// (approximated by document token length).
class TfIdfCosineScorer : public Scorer {
 public:
  double TermScore(const CollectionStats& stats, uint32_t doc_length,
                   uint32_t tf, uint32_t df, uint32_t qtf) const override;
  double Normalize(const CollectionStats& stats, uint32_t doc_length,
                   double accumulated) const override;
  std::string Name() const override { return "tfidf-cosine"; }
};

/// Okapi BM25 with standard parameters.
class Bm25Scorer : public Scorer {
 public:
  explicit Bm25Scorer(double k1 = 1.2, double b = 0.75) : k1_(k1), b_(b) {}
  double TermScore(const CollectionStats& stats, uint32_t doc_length,
                   uint32_t tf, uint32_t df, uint32_t qtf) const override;
  std::string Name() const override { return "bm25"; }

 private:
  double k1_;
  double b_;
};

/// Dirichlet-smoothed query likelihood (language modeling approach). The
/// collection language model comes from CollectionStats::total_tokens.
class LmDirichletScorer : public Scorer {
 public:
  explicit LmDirichletScorer(double mu = 1000.0);
  double TermScore(const CollectionStats& stats, uint32_t doc_length,
                   uint32_t tf, uint32_t df, uint32_t qtf) const override;
  double Normalize(const CollectionStats& stats, uint32_t doc_length,
                   double accumulated) const override;
  std::string Name() const override { return "lm-dirichlet"; }

 private:
  double mu_;
};

/// Factory helpers.
std::unique_ptr<Scorer> MakeTfIdfScorer();
std::unique_ptr<Scorer> MakeBm25Scorer(double k1 = 1.2, double b = 0.75);

}  // namespace toppriv::search

#endif  // TOPPRIV_SEARCH_SCORER_H_
