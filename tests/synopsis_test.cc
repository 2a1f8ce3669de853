#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "core/synopsis.h"
#include "core/twig_xsketch.h"
#include "data/figures.h"
#include "data/xmark.h"
#include "testing/doc_generator.h"
#include "util/random.h"
#include "xml/parser.h"

namespace xsketch::core {
namespace {

xml::Document Parse(const char* text) {
  auto r = xml::ParseDocument(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

SynNodeId NodeByTag(const Synopsis& syn, const xml::Document& doc,
                    const char* tag) {
  const auto& nodes = syn.NodesWithTag(doc.LookupTag(tag));
  EXPECT_EQ(nodes.size(), 1u) << tag;
  return nodes[0];
}

// --- Label-split synopsis ----------------------------------------------------------

TEST(SynopsisTest, LabelSplitPartitionsByTag) {
  xml::Document doc = data::MakeBibliography();
  Synopsis syn = Synopsis::LabelSplit(doc);
  // One synopsis node per distinct tag.
  EXPECT_EQ(syn.node_count(), doc.tag_count());
  SynNodeId a = NodeByTag(syn, doc, "author");
  EXPECT_EQ(syn.node(a).count, 3u);
  EXPECT_EQ(syn.Extent(a).size(), 3u);
  for (xml::NodeId e : syn.Extent(a)) {
    EXPECT_EQ(doc.tag_name(e), "author");
    EXPECT_EQ(syn.NodeOf(e), a);
  }
}

TEST(SynopsisTest, EdgeCountsBibliography) {
  xml::Document doc = data::MakeBibliography();
  Synopsis syn = Synopsis::LabelSplit(doc);
  SynNodeId a = NodeByTag(syn, doc, "author");
  SynNodeId p = NodeByTag(syn, doc, "paper");
  SynNodeId b = NodeByTag(syn, doc, "book");

  const SynEdge* ap = syn.FindEdge(a, p);
  ASSERT_NE(ap, nullptr);
  EXPECT_EQ(ap->child_count, 4u);   // 4 papers, all under authors
  EXPECT_EQ(ap->parent_count, 3u);  // every author has a paper
  EXPECT_TRUE(ap->backward_stable);
  EXPECT_TRUE(ap->forward_stable);

  const SynEdge* ab = syn.FindEdge(a, b);
  ASSERT_NE(ab, nullptr);
  EXPECT_EQ(ab->child_count, 1u);
  EXPECT_TRUE(ab->backward_stable);   // the only book is under an author
  EXPECT_FALSE(ab->forward_stable);   // not every author has a book

  EXPECT_EQ(syn.FindEdge(b, p), nullptr);  // no paper under book
}

TEST(SynopsisTest, RootNode) {
  xml::Document doc = data::MakeBibliography();
  Synopsis syn = Synopsis::LabelSplit(doc);
  EXPECT_EQ(syn.node(syn.RootNode()).tag, doc.LookupTag("bib"));
}

TEST(SynopsisTest, Figure4FullyStable) {
  // Figure 4(c): all edges backward AND forward stable.
  xml::Document doc = data::MakeFigure4A();
  Synopsis syn = Synopsis::LabelSplit(doc);
  for (SynNodeId n = 0; n < syn.node_count(); ++n) {
    for (const SynEdge& e : syn.node(n).children) {
      EXPECT_TRUE(e.backward_stable);
      EXPECT_TRUE(e.forward_stable);
    }
    EXPECT_EQ(syn.UnstableDegree(n), 0);
  }
}

TEST(SynopsisTest, UnstableDegreeCountsBothSides) {
  xml::Document doc = Parse("<r><a><x/></a><a/><b><x/></b></r>");
  Synopsis syn = Synopsis::LabelSplit(doc);
  SynNodeId a = NodeByTag(syn, doc, "a");
  // a→x is F-unstable (one a lacks x) and B-unstable (one x is under b).
  EXPECT_GE(syn.UnstableDegree(a), 1);
  SynNodeId x = NodeByTag(syn, doc, "x");
  EXPECT_GE(syn.UnstableDegree(x), 1);
}

// --- SplitNode -----------------------------------------------------------------------

TEST(SynopsisTest, SplitNodeMovesSubset) {
  xml::Document doc = Parse("<r><a><x/></a><a/><b><x/></b></r>");
  Synopsis syn = Synopsis::LabelSplit(doc);
  SynNodeId x = NodeByTag(syn, doc, "x");
  SynNodeId a = NodeByTag(syn, doc, "a");

  // b-stabilize x w.r.t. a: move x-elements whose parent is an a.
  std::vector<xml::NodeId> subset;
  for (xml::NodeId e : syn.Extent(x)) {
    if (syn.NodeOf(doc.parent(e)) == a) subset.push_back(e);
  }
  ASSERT_EQ(subset.size(), 1u);
  SynNodeId fresh = syn.SplitNode(x, subset);

  EXPECT_EQ(syn.node(fresh).count, 1u);
  EXPECT_EQ(syn.node(x).count, 1u);
  EXPECT_EQ(syn.node(fresh).tag, doc.LookupTag("x"));
  const SynEdge* edge = syn.FindEdge(a, fresh);
  ASSERT_NE(edge, nullptr);
  EXPECT_TRUE(edge->backward_stable);
  EXPECT_EQ(syn.FindEdge(a, x), nullptr);
  // Tag index now returns both nodes.
  EXPECT_EQ(syn.NodesWithTag(doc.LookupTag("x")).size(), 2u);
}

// Recounts every edge of `syn` by brute force from the document and the
// element partition, and expects each node's count, children (counts,
// stability flags, order) and parents to match, and the tag index to list
// every node of a tag in id order. Returns the number of self-edges seen.
int ExpectMatchesRecount(const Synopsis& syn, const xml::Document& doc) {
  const size_t n = syn.node_count();
  std::vector<uint64_t> count(n, 0);
  std::vector<std::map<SynNodeId, SynEdge>> children(n);
  std::vector<std::set<SynNodeId>> parents(n);
  std::set<std::pair<xml::NodeId, SynNodeId>> parent_has_child_in;
  for (xml::NodeId e = 0; e < doc.size(); ++e) {
    const SynNodeId x = syn.NodeOf(e);
    ++count[x];
    const xml::NodeId p = doc.parent(e);
    if (p == xml::kInvalidNode) continue;
    const SynNodeId u = syn.NodeOf(p);
    SynEdge& edge = children[u][x];
    edge.child = x;
    ++edge.child_count;
    if (parent_has_child_in.insert({p, x}).second) ++edge.parent_count;
    parents[x].insert(u);
  }
  int self_edges = 0;
  for (SynNodeId u = 0; u < n; ++u) {
    const SynNode& node = syn.node(u);
    EXPECT_EQ(node.count, count[u]) << "node " << u;
    EXPECT_EQ(node.children.size(), children[u].size()) << "node " << u;
    if (node.children.size() != children[u].size()) continue;
    size_t i = 0;
    for (const auto& [x, want] : children[u]) {
      const SynEdge& got = node.children[i++];
      EXPECT_EQ(got.child, x) << u << "->" << x;
      EXPECT_EQ(got.child_count, want.child_count) << u << "->" << x;
      EXPECT_EQ(got.parent_count, want.parent_count) << u << "->" << x;
      EXPECT_EQ(got.backward_stable, want.child_count == count[x])
          << u << "->" << x;
      EXPECT_EQ(got.forward_stable, want.parent_count == count[u])
          << u << "->" << x;
      if (x == u) ++self_edges;
    }
    EXPECT_EQ(node.parents,
              std::vector<SynNodeId>(parents[u].begin(), parents[u].end()))
        << "node " << u;
  }
  std::vector<std::vector<SynNodeId>> by_tag(doc.tag_count());
  for (SynNodeId u = 0; u < n; ++u) by_tag[syn.node(u).tag].push_back(u);
  for (xml::TagId tag = 0; tag < doc.tag_count(); ++tag) {
    EXPECT_EQ(syn.NodesWithTag(tag), by_tag[tag]) << "tag " << tag;
  }
  return self_edges;
}

TEST(SynopsisTest, SplitMatchesFullRecount) {
  int self_edges = 0;
  for (testing::DocShape shape : testing::kAllDocShapes) {
    for (uint64_t seed : {3u, 4u}) {
      SCOPED_TRACE(std::string(testing::DocShapeName(shape)) + " seed " +
                   std::to_string(seed));
      testing::DocGenOptions options = testing::ShapePreset(shape, seed);
      options.target_elements = 400;
      xml::Document doc = testing::GenerateRandomDocument(options);
      Synopsis syn = Synopsis::LabelSplit(doc);
      util::Rng rng(seed * 7919);
      self_edges += ExpectMatchesRecount(syn, doc);
      for (int split = 0; split < 40; ++split) {
        const auto v = static_cast<SynNodeId>(rng.Uniform(syn.node_count()));
        const std::vector<xml::NodeId>& extent = syn.Extent(v);
        if (extent.size() < 2) continue;
        // Mostly random subsets; sometimes the elements whose parent is
        // in v itself, which splits a self-edge into v<->fresh edges.
        std::vector<xml::NodeId> subset;
        const bool by_parent = rng.Bernoulli(0.3);
        for (xml::NodeId e : extent) {
          const xml::NodeId p = doc.parent(e);
          const bool take = by_parent ? p != xml::kInvalidNode &&
                                            syn.NodeOf(p) == v
                                      : rng.Bernoulli(0.5);
          if (take) subset.push_back(e);
        }
        if (subset.empty() || subset.size() == extent.size()) continue;
        syn.SplitNode(v, subset);
        self_edges += ExpectMatchesRecount(syn, doc);
      }
    }
  }
  // The recursive shape repeats tags along paths: self-edges were split.
  EXPECT_GT(self_edges, 0);
}

TEST(SynopsisTest, SplitPreservesTotalCounts) {
  xml::Document doc = data::GenerateXMark({.seed = 2, .scale = 0.02});
  Synopsis syn = Synopsis::LabelSplit(doc);
  // Split some node with >= 2 elements.
  for (SynNodeId n = 0; n < syn.node_count(); ++n) {
    if (syn.node(n).count >= 4) {
      std::vector<xml::NodeId> subset(syn.Extent(n).begin(),
                                      syn.Extent(n).begin() + 2);
      uint64_t before = syn.node(n).count;
      SynNodeId fresh = syn.SplitNode(n, subset);
      EXPECT_EQ(syn.node(n).count + syn.node(fresh).count, before);
      break;
    }
  }
  // Partition invariant: every element maps into a consistent extent.
  for (xml::NodeId e = 0; e < doc.size(); ++e) {
    const auto& extent = syn.Extent(syn.NodeOf(e));
    EXPECT_TRUE(std::find(extent.begin(), extent.end(), e) != extent.end());
  }
}

// --- TSN -----------------------------------------------------------------------------

TEST(SynopsisTest, TwigStableNeighborhoodBibliography) {
  xml::Document doc = data::MakeBibliography();
  Synopsis syn = Synopsis::LabelSplit(doc);
  SynNodeId p = NodeByTag(syn, doc, "paper");
  SynNodeId a = NodeByTag(syn, doc, "author");
  SynNodeId bib = NodeByTag(syn, doc, "bib");
  SynNodeId n = NodeByTag(syn, doc, "name");
  SynNodeId y = NodeByTag(syn, doc, "year");
  SynNodeId b = NodeByTag(syn, doc, "book");

  auto tsn = syn.TwigStableNeighborhood(p);
  auto has = [&](SynNodeId id) {
    return std::find(tsn.begin(), tsn.end(), id) != tsn.end();
  };
  EXPECT_TRUE(has(p));    // itself
  EXPECT_TRUE(has(a));    // B-stable author→paper
  EXPECT_TRUE(has(bib));  // B-stable bib→author
  EXPECT_TRUE(has(n));    // F-stable author→name
  EXPECT_TRUE(has(y));    // F-stable paper→year
  EXPECT_FALSE(has(b));   // author→book is not F-stable
}

TEST(SynopsisTest, NearestAncestorIn) {
  xml::Document doc = data::MakeBibliography();
  Synopsis syn = Synopsis::LabelSplit(doc);
  SynNodeId a = NodeByTag(syn, doc, "author");
  xml::TagId keyword = doc.LookupTag("keyword");
  for (xml::NodeId k : doc.NodesWithTag(keyword)) {
    xml::NodeId anc = syn.NearestAncestorIn(k, a);
    ASSERT_NE(anc, xml::kInvalidNode);
    EXPECT_EQ(doc.tag_name(anc), "author");
  }
  SynNodeId book = NodeByTag(syn, doc, "book");
  EXPECT_EQ(syn.NearestAncestorIn(doc.NodesWithTag(keyword)[0], book),
            xml::kInvalidNode);
}

TEST(SynopsisTest, StructureSizeAccounting) {
  xml::Document doc = data::MakeBibliography();
  Synopsis syn = Synopsis::LabelSplit(doc);
  size_t edges = 0;
  for (SynNodeId n = 0; n < syn.node_count(); ++n) {
    edges += syn.node(n).children.size();
  }
  EXPECT_EQ(syn.StructureSizeBytes(), syn.node_count() * 8 + edges * 16);
}

// --- TwigXSketch summaries -----------------------------------------------------------

TEST(TwigXSketchTest, CoarsestBuildsFStableHistograms) {
  xml::Document doc = data::MakeBibliography();
  CoarsestOptions opts;
  opts.max_initial_dims = 2;
  TwigXSketch sketch = TwigXSketch::Coarsest(doc, opts);
  const Synopsis& syn = sketch.synopsis();
  SynNodeId a = NodeByTag(syn, doc, "author");
  const NodeSummary& s = sketch.summary(a);
  // author has F-stable edges to name and paper: both fit max_initial_dims.
  ASSERT_EQ(s.scope.size(), 2u);
  for (const CountRef& ref : s.scope) {
    EXPECT_TRUE(ref.forward);
    EXPECT_EQ(ref.from, a);
    const SynEdge* e = syn.FindEdge(a, ref.to);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->forward_stable);
  }
  EXPECT_FALSE(s.hist.empty());
  EXPECT_FALSE(sketch.HasBackwardDims());
}

TEST(TwigXSketchTest, HistogramMatchesDocumentDistribution) {
  xml::Document doc = data::MakeFigure4A();
  CoarsestOptions opts;
  opts.max_initial_dims = 2;
  TwigXSketch sketch = TwigXSketch::Coarsest(doc, opts);
  const Synopsis& syn = sketch.synopsis();
  SynNodeId a = NodeByTag(syn, doc, "a");
  const NodeSummary& s = sketch.summary(a);
  ASSERT_EQ(s.scope.size(), 2u);
  // f_A over (b, c) = {(10,100): 0.5, (100,10): 0.5} in some dim order.
  EXPECT_NEAR(s.hist.ExpectedProduct({0, 1}), 1000.0, 1e-9);
  EXPECT_NEAR(s.hist.MarginalMean(0), 55.0, 1e-9);
}

TEST(TwigXSketchTest, ExpandScopeForward) {
  xml::Document doc = data::MakeBibliography();
  TwigXSketch sketch = TwigXSketch::Coarsest(doc);
  const Synopsis& syn = sketch.synopsis();
  SynNodeId a = NodeByTag(syn, doc, "author");
  SynNodeId b = NodeByTag(syn, doc, "book");
  const size_t dims_before = sketch.summary(a).scope.size();
  EXPECT_TRUE(sketch.ExpandScope(a, CountRef{true, a, b}));
  EXPECT_EQ(sketch.summary(a).scope.size(), dims_before + 1);
  // Duplicate expansion refused.
  EXPECT_FALSE(sketch.ExpandScope(a, CountRef{true, a, b}));
  // Nonexistent edge refused.
  SynNodeId y = NodeByTag(syn, doc, "year");
  EXPECT_FALSE(sketch.ExpandScope(a, CountRef{true, a, y}));
}

TEST(TwigXSketchTest, ExpandScopeBackward) {
  xml::Document doc = data::MakeBibliography();
  TwigXSketch sketch = TwigXSketch::Coarsest(doc);
  const Synopsis& syn = sketch.synopsis();
  SynNodeId a = NodeByTag(syn, doc, "author");
  SynNodeId p = NodeByTag(syn, doc, "paper");
  SynNodeId n = NodeByTag(syn, doc, "name");
  // Backward count at paper over the author→name edge (author reaches
  // paper B-stably).
  EXPECT_TRUE(sketch.ExpandScope(p, CountRef{false, a, n}));
  EXPECT_TRUE(sketch.HasBackwardDims());
  // Illegal: book does not reach paper.
  SynNodeId b = NodeByTag(syn, doc, "book");
  EXPECT_FALSE(sketch.ExpandScope(p, CountRef{false, b, n}));
}

TEST(TwigXSketchTest, ValueHistogramsOnValueNodes) {
  xml::Document doc = data::MakeBibliography();
  TwigXSketch sketch = TwigXSketch::Coarsest(doc);
  const Synopsis& syn = sketch.synopsis();
  SynNodeId y = NodeByTag(syn, doc, "year");
  EXPECT_FALSE(sketch.summary(y).values.empty());
  // Years: 1999, 2002, 2001, 1998 -> fraction > 2000 is 0.5.
  EXPECT_NEAR(sketch.summary(y).values.EstimateFraction(2001, 9999), 0.5,
              0.01);
  SynNodeId a = NodeByTag(syn, doc, "author");
  EXPECT_TRUE(sketch.summary(a).values.empty());
}

TEST(TwigXSketchTest, SplitRepairsScopes) {
  xml::Document doc = Parse(
      "<r><a><x/><k/></a><a><x/></a><b><x/><x/></b></r>");
  TwigXSketch sketch = TwigXSketch::Coarsest(doc);
  const Synopsis& syn = sketch.synopsis();
  SynNodeId a = NodeByTag(syn, doc, "a");
  SynNodeId x = NodeByTag(syn, doc, "x");
  // Give a an explicit forward dim on x (a→x is F-stable so it may already
  // be there; ensure presence).
  sketch.ExpandScope(a, CountRef{true, a, x});
  ASSERT_GE(sketch.summary(a).FindForwardDim(a, x), 0);

  // Split x by parent tag: elements under a vs under b.
  std::vector<xml::NodeId> subset;
  for (xml::NodeId e : sketch.synopsis().Extent(x)) {
    if (sketch.synopsis().NodeOf(doc.parent(e)) == a) subset.push_back(e);
  }
  SynNodeId fresh = sketch.SplitNode(x, subset);

  // a's scope must now reference the half that is a's child.
  const NodeSummary& s = sketch.summary(a);
  EXPECT_GE(s.FindForwardDim(a, fresh), 0);
  EXPECT_LT(s.FindForwardDim(a, x), 0);  // a no longer parents old-x
  EXPECT_EQ(static_cast<int>(s.scope.size()), s.hist.dims());
}

TEST(TwigXSketchTest, SizeBytesGrowsWithRefinement) {
  xml::Document doc = data::GenerateXMark({.seed = 3, .scale = 0.02});
  TwigXSketch sketch = TwigXSketch::Coarsest(doc);
  const size_t before = sketch.SizeBytes();
  // Find a node with a non-trivial histogram and refine it.
  for (SynNodeId n = 0; n < sketch.synopsis().node_count(); ++n) {
    const NodeSummary& s = sketch.summary(n);
    if (!s.scope.empty() && s.hist.bucket_count() >= s.bucket_budget) {
      sketch.RefineEdgeHistogram(n);
      break;
    }
  }
  EXPECT_GE(sketch.SizeBytes(), before);
}

}  // namespace
}  // namespace xsketch::core
