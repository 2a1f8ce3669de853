// Oracle tests for the structural-join executors (src/exec): hand-pinned
// region encodings and join results on documents small enough to count by
// eye, plus a seeded differential sweep asserting that binary joins (in
// naive, planner-adversarial, and random connected orders) and the
// holistic twig join all reproduce query::ExactEvaluator bit for bit.
// Failures print the XSKETCH_SEED repro banner.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "exec/streams.h"
#include "exec/structural_join.h"
#include "exec/twig_stack.h"
#include "query/evaluator.h"
#include "query/twig.h"
#include "query/xpath_parser.h"
#include "testing/doc_generator.h"
#include "testing/query_generator.h"
#include "testing/seed.h"
#include "util/random.h"
#include "xml/document.h"

namespace xsketch::exec {
namespace {

using query::Axis;
using query::TwigQuery;
using query::ValuePredicate;

#define XS_SEED_TRACE() \
  SCOPED_TRACE(testing::ReproCommand(testing::BaseSeed(), "exec_test"))

// bib -> 2x article(title, author+), 1x book(author). Values on authors.
//
//   bib
//   ├── article ── title
//   │          └── author(=1)
//   ├── article ── title
//   │          ├── author(=2)
//   │          └── author(=3)
//   └── book ──── author(=4)
xml::Document MakeBib() {
  xml::Document doc;
  const xml::NodeId bib = doc.AddNode(xml::kInvalidNode, "bib");
  const xml::NodeId a1 = doc.AddNode(bib, "article");
  doc.AddNode(a1, "title");
  doc.SetValue(doc.AddNode(a1, "author"), "1");
  const xml::NodeId a2 = doc.AddNode(bib, "article");
  doc.AddNode(a2, "title");
  doc.SetValue(doc.AddNode(a2, "author"), "2");
  doc.SetValue(doc.AddNode(a2, "author"), "3");
  const xml::NodeId b = doc.AddNode(bib, "book");
  doc.SetValue(doc.AddNode(b, "author"), "4");
  doc.Seal();
  return doc;
}

TwigQuery Parse(const xml::Document& doc, const std::string& path) {
  auto q = query::ParsePath(path, doc.tags());
  EXPECT_TRUE(q.ok()) << path << ": " << q.status().ToString();
  return q.value();
}

// --- StreamIndex ---------------------------------------------------------------------

TEST(StreamIndexTest, RegionEncodingPins) {
  const xml::Document doc = MakeBib();
  const StreamIndex index(doc);

  // Preorder: bib(0) article(1) title(2) author(3) article(4) title(5)
  // author(6) author(7) book(8) author(9).
  EXPECT_EQ(index.start(doc.root()), 0u);
  EXPECT_EQ(index.end(doc.root()), 10u);
  EXPECT_EQ(index.level(doc.root()), 0u);

  const auto articles = index.Stream(doc.LookupTag("article"));
  ASSERT_EQ(articles.size(), 2u);
  EXPECT_EQ(articles[0].start, 1u);
  EXPECT_EQ(articles[0].end, 4u);
  EXPECT_EQ(articles[1].start, 4u);
  EXPECT_EQ(articles[1].end, 8u);
  EXPECT_EQ(articles[0].level, 1u);

  const auto authors = index.Stream(doc.LookupTag("author"));
  ASSERT_EQ(authors.size(), 4u);
  // Start-ordered and all at level 2.
  for (size_t i = 0; i + 1 < authors.size(); ++i) {
    EXPECT_LT(authors[i].start, authors[i + 1].start);
  }
  for (const auto& a : authors) EXPECT_EQ(a.level, 2u);

  // Subtree intervals nest properly: every author is inside exactly one
  // of article/book.
  EXPECT_GT(authors[1].start, articles[1].start);
  EXPECT_LT(authors[1].start, articles[1].end);
}

TEST(StreamIndexTest, AbsentAndUnknownTagsHaveEmptyStreams) {
  const xml::Document doc = MakeBib();
  const StreamIndex index(doc);
  EXPECT_TRUE(index.Stream(query::kUnknownTag).empty());
  EXPECT_EQ(index.StreamSize(query::kUnknownTag), 0u);
}

TEST(StreamIndexTest, ValuePredicateFiltering) {
  const xml::Document doc = MakeBib();
  const StreamIndex index(doc);
  TwigQuery q;
  q.AddNode(TwigQuery::kNoParent, Axis::kDescendant,
            doc.LookupTag("author"), false, ValuePredicate{2, 3});
  EXPECT_EQ(index.Stream(q, 0).size(), 2u);
  // Elements without numeric values never match a predicate.
  TwigQuery qt;
  qt.AddNode(TwigQuery::kNoParent, Axis::kDescendant,
             doc.LookupTag("title"), false, ValuePredicate{0, 100});
  EXPECT_TRUE(index.Stream(qt, 0).empty());
}

// --- Binding skeleton ----------------------------------------------------------------

TEST(BindingSkeletonTest, ExistentialSubtreesLeaveTheSkeleton) {
  const xml::Document doc = MakeBib();
  // //article[title]/author: title is existential, skeleton is
  // article->author only.
  const TwigQuery q = Parse(doc, "//article[title]/author");
  const BindingSkeleton sk = MakeBindingSkeleton(q);
  EXPECT_EQ(sk.binding_nodes.size(), 2u);
  ASSERT_EQ(sk.edges.size(), 1u);
  EXPECT_EQ(sk.edges[0].parent, 0);
  EXPECT_TRUE(sk.effective_existential[1] || sk.effective_existential[2]);
}

TEST(BindingSkeletonTest, NodesBelowExistentialAreEffectivelyExistential) {
  const xml::Document doc = MakeBib();
  TwigQuery q;
  const int r = q.AddNode(TwigQuery::kNoParent, Axis::kDescendant,
                          doc.LookupTag("bib"));
  const int art = q.AddNode(r, Axis::kChild, doc.LookupTag("article"),
                            /*existential=*/true);
  const int au = q.AddNode(art, Axis::kChild, doc.LookupTag("author"));
  const BindingSkeleton sk = MakeBindingSkeleton(q);
  EXPECT_TRUE(sk.effective_existential[art]);
  EXPECT_TRUE(sk.effective_existential[au]);  // inherited, flag or not
  EXPECT_EQ(sk.binding_nodes, std::vector<int>{r});
  EXPECT_TRUE(sk.edges.empty());
}

// --- Binary executor: hand-counted results -------------------------------------------

TEST(StructuralJoinTest, HandCountedJoins) {
  const xml::Document doc = MakeBib();
  const StreamIndex index(doc);
  const StructuralJoinExecutor executor(index);

  struct Case {
    const char* path;
    uint64_t expected;
  };
  const Case cases[] = {
      {"//article/author", 3},         // 1 + 2 authors
      {"//article/title", 2},          //
      {"//bib/article/author", 3},     // 3-node chain
      {"//bib//author", 4},            // descendant reaches book's too
      {"/bib/article", 2},             // anchored root
      {"/article", 0},                 // article is not the document root
      {"//article[title]/author", 3},  // existential filter keeps both
      {"//book[title]/author", 0},     // no book has a title
      {"//author", 4},                 // single-node: filtered stream size
  };
  for (const Case& c : cases) {
    const auto r = executor.ExecuteNaive(Parse(doc, c.path));
    ASSERT_TRUE(r.ok()) << c.path << ": " << r.status().ToString();
    EXPECT_EQ(r.value().matches, c.expected) << c.path;
    EXPECT_FALSE(r.value().holistic);
  }
}

TEST(StructuralJoinTest, ValuePredicatesAndEmptyRanges) {
  const xml::Document doc = MakeBib();
  const StreamIndex index(doc);
  const StructuralJoinExecutor executor(index);

  TwigQuery q;
  const int art = q.AddNode(TwigQuery::kNoParent, Axis::kDescendant,
                            doc.LookupTag("article"));
  q.AddNode(art, Axis::kChild, doc.LookupTag("author"), false,
            ValuePredicate{2, 9});
  auto r = executor.ExecuteNaive(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().matches, 2u);  // authors 2, 3

  // Empty range (lo > hi) is valid and matches nothing.
  TwigQuery qe;
  const int art2 = qe.AddNode(TwigQuery::kNoParent, Axis::kDescendant,
                              doc.LookupTag("article"));
  qe.AddNode(art2, Axis::kChild, doc.LookupTag("author"), false,
             ValuePredicate{5, 1});
  r = executor.ExecuteNaive(qe);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().matches, 0u);
}

TEST(StructuralJoinTest, UnknownTagExecutesToZero) {
  const xml::Document doc = MakeBib();
  const StreamIndex index(doc);
  const StructuralJoinExecutor executor(index);
  TwigQuery q;
  const int r0 = q.AddNode(TwigQuery::kNoParent, Axis::kDescendant,
                           doc.LookupTag("article"));
  q.AddNode(r0, Axis::kDescendant, query::kUnknownTag);
  const auto r = executor.ExecuteNaive(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().matches, 0u);
}

TEST(StructuralJoinTest, StatsAccounting) {
  const xml::Document doc = MakeBib();
  const StreamIndex index(doc);
  const StructuralJoinExecutor executor(index);
  const TwigQuery q = Parse(doc, "//bib/article/author");
  const auto r = executor.ExecuteNaive(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().joins, 2);
  // Streams: bib(1) + article(2) + author(4).
  EXPECT_EQ(r.value().input_rows, 7u);
  // First join emits (bib, article) twice; final join is excluded from
  // intermediates.
  EXPECT_EQ(r.value().intermediate_rows, 2u);
  EXPECT_EQ(r.value().logical_rows, 2u);
  EXPECT_EQ(r.value().emitted_rows, 2u + 3u);
}

TEST(StructuralJoinTest, AllConnectedOrdersAgree) {
  const xml::Document doc = MakeBib();
  const StreamIndex index(doc);
  const StructuralJoinExecutor executor(index);
  // Star twig: //article with author and title children.
  TwigQuery star;
  const int art = star.AddNode(TwigQuery::kNoParent, Axis::kDescendant,
                               doc.LookupTag("article"));
  const int au = star.AddNode(art, Axis::kChild, doc.LookupTag("author"));
  const int ti = star.AddNode(art, Axis::kChild, doc.LookupTag("title"));

  const std::vector<std::vector<JoinEdge>> orders = {
      {{art, au}, {art, ti}},
      {{art, ti}, {art, au}},
  };
  for (const auto& order : orders) {
    const auto r = executor.ExecuteBinary(star, order);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().matches, 3u);  // per article: authors x titles
  }
}

TEST(StructuralJoinTest, InvalidOrdersAreRejected) {
  const xml::Document doc = MakeBib();
  const StreamIndex index(doc);
  const StructuralJoinExecutor executor(index);
  TwigQuery q;
  const int bib = q.AddNode(TwigQuery::kNoParent, Axis::kDescendant,
                            doc.LookupTag("bib"));
  const int art = q.AddNode(bib, Axis::kChild, doc.LookupTag("article"));
  const int au = q.AddNode(art, Axis::kChild, doc.LookupTag("author"));

  // Wrong edge count.
  auto r = executor.ExecuteBinary(q, std::vector<JoinEdge>{{bib, art}});
  EXPECT_EQ(r.status().code(), util::StatusCode::kInvalidArgument);
  // Duplicate edge (not a permutation).
  r = executor.ExecuteBinary(q,
                             std::vector<JoinEdge>{{bib, art}, {bib, art}});
  EXPECT_EQ(r.status().code(), util::StatusCode::kInvalidArgument);
  // Edge not in the skeleton.
  r = executor.ExecuteBinary(q, std::vector<JoinEdge>{{bib, art}, {bib, au}});
  EXPECT_EQ(r.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(StructuralJoinTest, EmittedRowCapReturnsOutOfRange) {
  // A chain of n nested <a>: //a//a pairs every a with each a below it,
  // n(n-1)/2 = 134,225,920 rows for n = 16,385, just past the 2^27 cap.
  // It is the final join, so no row is materialized before the cap hits.
  constexpr uint64_t kChain = 16385;
  static_assert(kChain * (kChain - 1) / 2 >
                StructuralJoinExecutor::kMaxEmittedRows);
  xml::Document doc;
  xml::NodeId parent = xml::kInvalidNode;
  for (uint64_t i = 0; i < kChain; ++i) parent = doc.AddNode(parent, "a");
  doc.Seal();
  const StreamIndex index(doc);
  const StructuralJoinExecutor executor(index);
  const auto r = executor.ExecuteNaive(Parse(doc, "//a//a"));
  EXPECT_EQ(r.status().code(), util::StatusCode::kOutOfRange);
}

// --- Holistic operator ---------------------------------------------------------------

TEST(HolisticTwigJoinTest, HandCountedResultsMatchBinary) {
  const xml::Document doc = MakeBib();
  const StreamIndex index(doc);
  const HolisticTwigJoin holistic(index);
  const StructuralJoinExecutor executor(index);
  for (const char* path :
       {"//article/author", "//bib//author", "/bib/article/author",
        "//article[title]/author", "/article", "//author"}) {
    const TwigQuery q = Parse(doc, path);
    const auto h = holistic.Execute(q);
    const auto b = executor.ExecuteNaive(q);
    ASSERT_TRUE(h.ok()) << path;
    ASSERT_TRUE(b.ok()) << path;
    EXPECT_EQ(h.value().matches, b.value().matches) << path;
    EXPECT_TRUE(h.value().holistic);
    EXPECT_EQ(h.value().intermediate_rows, 0u);
  }
}

TEST(HolisticTwigJoinTest, RecursiveTagsOnTheStack) {
  // Same tag nested within itself: frames must fold into the right
  // ancestor, children only one level down.
  xml::Document doc;
  const xml::NodeId r = doc.AddNode(xml::kInvalidNode, "a");
  const xml::NodeId m = doc.AddNode(r, "a");
  doc.AddNode(m, "a");
  doc.AddNode(m, "b");
  doc.Seal();
  const StreamIndex index(doc);
  const HolisticTwigJoin holistic(index);
  const query::ExactEvaluator exact(doc);
  for (const char* path : {"//a//a", "//a/a", "//a//a//a", "//a[b]", "//a//b"}) {
    auto q = query::ParsePath(path, doc.tags());
    ASSERT_TRUE(q.ok());
    const auto h = holistic.Execute(q.value());
    ASSERT_TRUE(h.ok()) << path;
    EXPECT_EQ(h.value().matches, exact.Selectivity(q.value())) << path;
  }
}

// --- Differential sweep: every executor against the oracle ---------------------------

// A random connected skeleton-edge order: grow from a random seed edge,
// repeatedly appending a random frontier edge.
std::vector<JoinEdge> RandomConnectedOrder(const BindingSkeleton& sk,
                                           util::Rng& rng) {
  std::vector<JoinEdge> pool = sk.edges;
  std::vector<JoinEdge> order;
  if (pool.empty()) return order;
  std::vector<char> covered(1024, 0);
  const size_t first = rng.Uniform(pool.size());
  order.push_back(pool[first]);
  covered[pool[first].parent] = covered[pool[first].child] = 1;
  pool.erase(pool.begin() + first);
  while (!pool.empty()) {
    std::vector<size_t> frontier;
    for (size_t i = 0; i < pool.size(); ++i) {
      if (covered[pool[i].parent] || covered[pool[i].child]) {
        frontier.push_back(i);
      }
    }
    const size_t pick = frontier[rng.Uniform(frontier.size())];
    order.push_back(pool[pick]);
    covered[pool[pick].parent] = covered[pool[pick].child] = 1;
    pool.erase(pool.begin() + pick);
  }
  return order;
}

TEST(ExecDifferentialTest, AllExecutorsMatchExactAcrossShapes) {
  XS_SEED_TRACE();
  for (testing::DocShape shape : testing::kAllDocShapes) {
    const uint64_t doc_seed =
        testing::Derive(testing::BaseSeed(), 0xE0 + static_cast<int>(shape));
    const xml::Document doc =
        testing::GenerateRandomDocument(testing::ShapePreset(shape, doc_seed));
    const query::ExactEvaluator exact(doc);
    const StreamIndex index(doc);
    const StructuralJoinExecutor executor(index);
    const HolisticTwigJoin holistic(index);

    testing::QueryGenOptions qopts;
    util::Rng rng(testing::Derive(doc_seed, 0x51));
    for (int i = 0; i < 20; ++i) {
      const TwigQuery q = testing::GenerateRandomTwig(doc, qopts, rng);
      SCOPED_TRACE(testing::DocShapeName(shape) + std::string(" query ") +
                   std::to_string(i) + ": " + q.ToString(doc.tags()));
      const uint64_t truth = exact.Selectivity(q);

      const auto h = holistic.Execute(q);
      ASSERT_TRUE(h.ok()) << h.status().ToString();
      EXPECT_EQ(h.value().matches, truth);

      const auto naive = executor.ExecuteNaive(q);
      if (naive.status().code() == util::StatusCode::kOutOfRange) continue;
      ASSERT_TRUE(naive.ok()) << naive.status().ToString();
      EXPECT_EQ(naive.value().matches, truth);

      const auto order = RandomConnectedOrder(MakeBindingSkeleton(q), rng);
      const auto shuffled = executor.ExecuteBinary(q, order);
      if (shuffled.status().code() == util::StatusCode::kOutOfRange) continue;
      ASSERT_TRUE(shuffled.ok()) << shuffled.status().ToString();
      EXPECT_EQ(shuffled.value().matches, truth);
    }
  }
}

}  // namespace
}  // namespace xsketch::exec
