#include "core/frozen_io.h"

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <vector>

#include "core/xsk3_format.h"
#include "util/posix_io.h"

namespace xsketch::core {

namespace {

constexpr bool kLittleEndianHost =
    std::endian::native == std::endian::little;

// Depth bound accepted from a file: path_length_cap derives from
// doc_max_depth, and '//' expansion recurses to that depth (synopsis
// adjacency may legitimately contain cycles — recursive tags — so the
// depth cap is the only recursion bound). Real XML depth is tiny; 4096
// keeps adversarial files from overflowing the stack.
constexpr uint32_t kMaxDocDepth = 4096;

util::Status Bad(const std::string& msg) {
  return util::Status::ParseError("XSK3: " + msg);
}

bool FiniteNonNegative(double v) { return std::isfinite(v) && v >= 0.0; }
bool FinitePositive(double v) { return std::isfinite(v) && v > 0.0; }

}  // namespace

// Friend of FrozenSynopsis: serializes the frozen arrays to the XSK3
// image and attaches a FrozenSynopsis to a validated image.
class Xsk3Codec {
 public:
  static util::Result<std::string> Save(const FrozenSynopsis& fz);
  static util::Result<std::shared_ptr<const FrozenSynopsis>> Load(
      const uint8_t* data, size_t size,
      std::shared_ptr<const void> keepalive);

 private:
  struct SectionData {
    const void* ptr;
    uint64_t count;
    uint64_t elem;  // element size in bytes (1 for the name blob)
  };

  template <typename T>
  static std::span<const T> SpanOf(const uint8_t* data,
                                   const Xsk3Section& s) {
    return {reinterpret_cast<const T*>(data + s.offset),
            static_cast<size_t>(s.count)};
  }
};

util::Result<std::string> Xsk3Codec::Save(const FrozenSynopsis& fz) {
  if constexpr (!kLittleEndianHost) {
    return util::Status::InvalidArgument(
        "XSK3 serialization requires a little-endian host");
  }
  // Tag-name table: CSR offsets into a concatenated blob.
  const uint32_t tag_count = static_cast<uint32_t>(fz.tags_.size());
  std::vector<uint32_t> name_off(tag_count + 1, 0);
  std::string blob;
  for (uint32_t t = 0; t < tag_count; ++t) {
    name_off[t] = static_cast<uint32_t>(blob.size());
    blob += fz.tags_.Get(t);
  }
  name_off[tag_count] = static_cast<uint32_t>(blob.size());

  // Sections in id order (kSecTag .. kSecTagNameBlob).
  const SectionData sections[kXsk3SectionCount] = {
      {fz.tag_.data(), fz.tag_.size(), sizeof(xml::TagId)},
      {fz.count_.data(), fz.count_.size(), sizeof(double)},
      {fz.edge_begin_.data(), fz.edge_begin_.size(), sizeof(uint32_t)},
      {fz.edges_.data(), fz.edges_.size(), sizeof(FrozenSynopsis::Edge)},
      {fz.hist_dims_.data(), fz.hist_dims_.size(), sizeof(int32_t)},
      {fz.bucket_begin_.data(), fz.bucket_begin_.size(), sizeof(uint32_t)},
      {fz.col_begin_.data(), fz.col_begin_.size(), sizeof(uint64_t)},
      {fz.bucket_frac_.data(), fz.bucket_frac_.size(), sizeof(double)},
      {fz.static_prob_.data(), fz.static_prob_.size(), sizeof(double)},
      {fz.mean_.data(), fz.mean_.size(), sizeof(double)},
      {fz.lo_minus_.data(), fz.lo_minus_.size(), sizeof(double)},
      {fz.hi_plus_.data(), fz.hi_plus_.size(), sizeof(double)},
      {fz.inv_span_.data(), fz.inv_span_.size(), sizeof(double)},
      {fz.fwd_begin_.data(), fz.fwd_begin_.size(), sizeof(uint32_t)},
      {fz.bwd_begin_.data(), fz.bwd_begin_.size(), sizeof(uint32_t)},
      {fz.fwd_.data(), fz.fwd_.size(), sizeof(FrozenSynopsis::ForwardDim)},
      {fz.bwd_.data(), fz.bwd_.size(), sizeof(FrozenSynopsis::BackwardDim)},
      {fz.tag_begin_.data(), fz.tag_begin_.size(), sizeof(uint32_t)},
      {fz.tag_nodes_.data(), fz.tag_nodes_.size(), sizeof(SynNodeId)},
      {fz.vbucket_begin_.data(), fz.vbucket_begin_.size(), sizeof(uint32_t)},
      {fz.vbucket_.data(), fz.vbucket_.size(),
       sizeof(FrozenSynopsis::ValueBucket)},
      {fz.vtotal_.data(), fz.vtotal_.size(), sizeof(uint64_t)},
      {fz.voffset_.data(), fz.voffset_.size(), sizeof(int64_t)},
      {fz.vscope_begin_.data(), fz.vscope_begin_.size(), sizeof(uint32_t)},
      {fz.vscope_.data(), fz.vscope_.size(),
       sizeof(FrozenSynopsis::ValueRef)},
      {fz.jdims_.data(), fz.jdims_.size(), sizeof(int32_t)},
      {fz.jbucket_begin_.data(), fz.jbucket_begin_.size(), sizeof(uint32_t)},
      {fz.jcol_begin_.data(), fz.jcol_begin_.size(), sizeof(uint64_t)},
      {fz.jfrac_.data(), fz.jfrac_.size(), sizeof(double)},
      {fz.jlo_minus_.data(), fz.jlo_minus_.size(), sizeof(double)},
      {fz.jhi_plus_.data(), fz.jhi_plus_.size(), sizeof(double)},
      {fz.jmean_.data(), fz.jmean_.size(), sizeof(double)},
      {name_off.data(), name_off.size(), sizeof(uint32_t)},
      {blob.data(), blob.size(), 1},
  };

  // Layout: header, section table, then densely packed aligned payloads.
  const size_t meta_bytes =
      sizeof(Xsk3Header) + kXsk3SectionCount * sizeof(Xsk3Section);
  Xsk3Section table[kXsk3SectionCount];
  uint64_t offset = meta_bytes;
  for (uint32_t i = 0; i < kXsk3SectionCount; ++i) {
    offset = Xsk3Align(offset);
    table[i].id = i + 1;
    table[i].offset = offset;
    table[i].count = sections[i].count;
    table[i].bytes = sections[i].count * sections[i].elem;
    table[i].crc = Crc32(sections[i].ptr, table[i].bytes);
    offset += table[i].bytes;
  }
  const uint64_t file_size = offset;

  Xsk3Header hdr{};
  std::memcpy(hdr.magic, kXsk3Magic, sizeof(hdr.magic));
  hdr.version = kXsk3Version;
  hdr.file_size = file_size;
  hdr.header_crc = 0;  // patched below
  hdr.section_count = kXsk3SectionCount;
  hdr.node_count = fz.node_count();
  hdr.tag_count = tag_count;
  hdr.root_node = fz.root_node_;
  hdr.doc_max_depth = fz.doc_max_depth_;
  hdr.flags = fz.has_backward_dims_ ? kXsk3FlagBackwardDims : 0;
  hdr.doc_size = fz.doc_size_;

  std::string out(file_size, '\0');
  std::memcpy(out.data(), &hdr, sizeof(hdr));
  std::memcpy(out.data() + sizeof(hdr), table, sizeof(table));
  for (uint32_t i = 0; i < kXsk3SectionCount; ++i) {
    if (table[i].bytes > 0) {
      std::memcpy(out.data() + table[i].offset, sections[i].ptr,
                  table[i].bytes);
    }
  }
  const uint32_t header_crc =
      Crc32(out.data(), meta_bytes);  // crc field is still zero here
  std::memcpy(out.data() + offsetof(Xsk3Header, header_crc), &header_crc,
              sizeof(header_crc));
  return out;
}

util::Result<std::shared_ptr<const FrozenSynopsis>> Xsk3Codec::Load(
    const uint8_t* data, size_t size, std::shared_ptr<const void> keepalive) {
  if constexpr (!kLittleEndianHost) {
    return util::Status::InvalidArgument(
        "XSK3 loading requires a little-endian host");
  }
  const size_t meta_bytes =
      sizeof(Xsk3Header) + kXsk3SectionCount * sizeof(Xsk3Section);
  if (data == nullptr || size < meta_bytes) {
    return Bad("file too small for header + section table");
  }
  Xsk3Header hdr;
  std::memcpy(&hdr, data, sizeof(hdr));
  if (std::memcmp(hdr.magic, kXsk3Magic, sizeof(hdr.magic)) != 0) {
    return Bad("bad magic (not an XSK3 file)");
  }
  if (hdr.version != kXsk3Version) {
    return Bad("unsupported version " + std::to_string(hdr.version));
  }
  if (hdr.file_size != size) {
    return Bad("file size mismatch: header says " +
               std::to_string(hdr.file_size) + ", got " +
               std::to_string(size) + " bytes (truncated or extended)");
  }
  if (hdr.section_count != kXsk3SectionCount) {
    return Bad("unexpected section count " +
               std::to_string(hdr.section_count));
  }
  {
    // Header + table checksum, with the crc field zeroed.
    std::vector<uint8_t> meta(data, data + meta_bytes);
    std::memset(meta.data() + offsetof(Xsk3Header, header_crc), 0,
                sizeof(uint32_t));
    if (Crc32(meta.data(), meta_bytes) != hdr.header_crc) {
      return Bad("header checksum mismatch");
    }
  }
  if (hdr.reserved0 != 0 || hdr.reserved1 != 0) {
    return Bad("reserved header fields must be zero");
  }
  if ((hdr.flags & ~kXsk3FlagBackwardDims) != 0) {
    return Bad("unknown header flags");
  }
  if (hdr.node_count == 0) {
    return Bad("zero-node synopsis (a sketch always has a root node)");
  }
  if (hdr.root_node >= hdr.node_count) {
    return Bad("root node out of range");
  }
  if (hdr.doc_max_depth > kMaxDocDepth) {
    return Bad("doc_max_depth implausibly large");
  }

  // Section geometry: ids in order, densely packed, aligned, every byte
  // inside the file. Nothing on disk is trusted: offsets and counts are
  // re-derived from the fixed layout rules and must match exactly.
  static const uint64_t kElemSize[kXsk3SectionCount] = {
      sizeof(xml::TagId), sizeof(double), sizeof(uint32_t),
      sizeof(FrozenSynopsis::Edge), sizeof(int32_t), sizeof(uint32_t),
      sizeof(uint64_t), sizeof(double), sizeof(double), sizeof(double),
      sizeof(double), sizeof(double), sizeof(double), sizeof(uint32_t),
      sizeof(uint32_t), sizeof(FrozenSynopsis::ForwardDim),
      sizeof(FrozenSynopsis::BackwardDim), sizeof(uint32_t),
      sizeof(SynNodeId), sizeof(uint32_t),
      sizeof(FrozenSynopsis::ValueBucket), sizeof(uint64_t),
      sizeof(int64_t), sizeof(uint32_t), sizeof(FrozenSynopsis::ValueRef),
      sizeof(int32_t), sizeof(uint32_t), sizeof(uint64_t), sizeof(double),
      sizeof(double), sizeof(double), sizeof(double), sizeof(uint32_t), 1};

  Xsk3Section secs[kXsk3SectionCount];
  std::memcpy(secs, data + sizeof(Xsk3Header), sizeof(secs));
  uint64_t expect_off = meta_bytes;
  for (uint32_t i = 0; i < kXsk3SectionCount; ++i) {
    const Xsk3Section& s = secs[i];
    if (s.id != i + 1) return Bad("section table ids out of order");
    expect_off = Xsk3Align(expect_off);
    if (s.offset != expect_off) {
      return Bad("section " + std::to_string(s.id) +
                 " offset breaks dense packing");
    }
    if (s.count > size / kElemSize[i]) {
      return Bad("section " + std::to_string(s.id) + " count overflows");
    }
    if (s.bytes != s.count * kElemSize[i]) {
      return Bad("section " + std::to_string(s.id) +
                 " bytes/count mismatch");
    }
    if (s.offset > size || s.bytes > size - s.offset) {
      return Bad("section " + std::to_string(s.id) +
                 " extends past end of file (truncated)");
    }
    expect_off = s.offset + s.bytes;
  }
  if (expect_off != size) {
    return Bad("trailing bytes after the last section");
  }
  // Sketch bytes from disk are untrusted: every payload's CRC is checked.
  // The sweeps below touch every double and index section anyway, so
  // this is one more pass over pages the load pages in regardless.
  for (const Xsk3Section& s : secs) {
    if (Crc32(data + s.offset, s.bytes) != s.crc) {
      return Bad("section " + std::to_string(s.id) + " checksum mismatch");
    }
  }

  // Fixed element counts implied by node_count / tag_count.
  const uint64_t n_nodes = hdr.node_count;
  const uint64_t n_tags = hdr.tag_count;
  const struct {
    Xsk3SectionId id;
    uint64_t count;
  } fixed[] = {
      {kSecTag, n_nodes},          {kSecCount, n_nodes},
      {kSecEdgeBegin, n_nodes + 1}, {kSecHistDims, n_nodes},
      {kSecBucketBegin, n_nodes + 1}, {kSecColBegin, n_nodes},
      {kSecFwdBegin, n_nodes + 1}, {kSecBwdBegin, n_nodes + 1},
      {kSecTagBegin, n_tags + 1},  {kSecVBucketBegin, n_nodes + 1},
      {kSecVTotal, n_nodes},       {kSecVOffset, n_nodes},
      {kSecVScopeBegin, n_nodes + 1}, {kSecJDims, n_nodes},
      {kSecJBucketBegin, n_nodes + 1}, {kSecJColBegin, n_nodes},
      {kSecTagNameOffsets, n_tags + 1},
  };
  for (const auto& f : fixed) {
    if (secs[f.id - 1].count != f.count) {
      return Bad("section " + std::to_string(f.id) +
                 " count inconsistent with header");
    }
  }
  const auto count_of = [&](Xsk3SectionId id) { return secs[id - 1].count; };
  if (count_of(kSecStaticProb) != count_of(kSecBucketFrac)) {
    return Bad("static-prob / bucket-fraction count mismatch");
  }
  if (count_of(kSecLoMinus) != count_of(kSecMean) ||
      count_of(kSecHiPlus) != count_of(kSecMean) ||
      count_of(kSecInvSpan) != count_of(kSecMean)) {
    return Bad("histogram column count mismatch");
  }
  if (count_of(kSecJLoMinus) != count_of(kSecJMean) ||
      count_of(kSecJHiPlus) != count_of(kSecJMean)) {
    return Bad("joint histogram column count mismatch");
  }

  // Typed views for structural validation.
  const auto sec = [&](Xsk3SectionId id) -> const Xsk3Section& {
    return secs[id - 1];
  };
  const auto tag = SpanOf<xml::TagId>(data, sec(kSecTag));
  const auto count_arr = SpanOf<double>(data, sec(kSecCount));
  const auto edge_begin = SpanOf<uint32_t>(data, sec(kSecEdgeBegin));
  const auto edges = SpanOf<FrozenSynopsis::Edge>(data, sec(kSecEdges));
  const auto hist_dims = SpanOf<int32_t>(data, sec(kSecHistDims));
  const auto bucket_begin = SpanOf<uint32_t>(data, sec(kSecBucketBegin));
  const auto col_begin = SpanOf<uint64_t>(data, sec(kSecColBegin));
  const auto bucket_frac = SpanOf<double>(data, sec(kSecBucketFrac));
  const auto static_prob = SpanOf<double>(data, sec(kSecStaticProb));
  const auto mean = SpanOf<double>(data, sec(kSecMean));
  const auto lo_minus = SpanOf<double>(data, sec(kSecLoMinus));
  const auto hi_plus = SpanOf<double>(data, sec(kSecHiPlus));
  const auto inv_span = SpanOf<double>(data, sec(kSecInvSpan));
  const auto fwd_begin = SpanOf<uint32_t>(data, sec(kSecFwdBegin));
  const auto bwd_begin = SpanOf<uint32_t>(data, sec(kSecBwdBegin));
  const auto fwd = SpanOf<FrozenSynopsis::ForwardDim>(data, sec(kSecFwd));
  const auto bwd = SpanOf<FrozenSynopsis::BackwardDim>(data, sec(kSecBwd));
  const auto tag_begin = SpanOf<uint32_t>(data, sec(kSecTagBegin));
  const auto tag_nodes = SpanOf<SynNodeId>(data, sec(kSecTagNodes));
  const auto vbucket_begin = SpanOf<uint32_t>(data, sec(kSecVBucketBegin));
  const auto vbucket =
      SpanOf<FrozenSynopsis::ValueBucket>(data, sec(kSecVBuckets));
  const auto vtotal = SpanOf<uint64_t>(data, sec(kSecVTotal));
  const auto vscope_begin = SpanOf<uint32_t>(data, sec(kSecVScopeBegin));
  const auto vscope =
      SpanOf<FrozenSynopsis::ValueRef>(data, sec(kSecVScope));
  const auto jdims = SpanOf<int32_t>(data, sec(kSecJDims));
  const auto jbucket_begin = SpanOf<uint32_t>(data, sec(kSecJBucketBegin));
  const auto jcol_begin = SpanOf<uint64_t>(data, sec(kSecJColBegin));
  const auto jfrac = SpanOf<double>(data, sec(kSecJFrac));
  const auto jlo_minus = SpanOf<double>(data, sec(kSecJLoMinus));
  const auto jhi_plus = SpanOf<double>(data, sec(kSecJHiPlus));
  const auto jmean = SpanOf<double>(data, sec(kSecJMean));
  const auto name_off = SpanOf<uint32_t>(data, sec(kSecTagNameOffsets));

  // CSR arrays: start at 0, monotone, last entry equals the dependent
  // section's element count.
  const auto check_csr = [&](std::span<const uint32_t> begin_arr,
                             uint64_t total) -> bool {
    if (begin_arr.empty() || begin_arr.front() != 0) return false;
    for (size_t i = 1; i < begin_arr.size(); ++i) {
      if (begin_arr[i] < begin_arr[i - 1]) return false;
    }
    return begin_arr.back() == total;
  };
  if (!check_csr(edge_begin, edges.size())) {
    return Bad("edge CSR inconsistent");
  }
  if (!check_csr(bucket_begin, bucket_frac.size())) {
    return Bad("bucket CSR inconsistent");
  }
  if (!check_csr(fwd_begin, fwd.size())) {
    return Bad("forward-scope CSR inconsistent");
  }
  if (!check_csr(bwd_begin, bwd.size())) {
    return Bad("backward-scope CSR inconsistent");
  }
  if (!check_csr(tag_begin, tag_nodes.size())) {
    return Bad("tag-index CSR inconsistent");
  }
  if (!check_csr(vbucket_begin, vbucket.size())) {
    return Bad("value-bucket CSR inconsistent");
  }
  if (!check_csr(vscope_begin, vscope.size())) {
    return Bad("value-scope CSR inconsistent");
  }
  if (!check_csr(jbucket_begin, jfrac.size())) {
    return Bad("joint-bucket CSR inconsistent");
  }
  if (!check_csr(name_off, sec(kSecTagNameBlob).count)) {
    return Bad("tag-name offsets inconsistent");
  }

  // The flag the compiler keys enumeration on must match the data:
  // backward scopes and joint value scopes both make estimation
  // context-dependent (see TwigXSketch::HasBackwardDims).
  const bool flag_bwd = (hdr.flags & kXsk3FlagBackwardDims) != 0;
  if (flag_bwd != (bwd.size() > 0 || vscope.size() > 0)) {
    return Bad("backward-dims flag inconsistent with backward/value scopes");
  }

  // Per-node invariants the compiler/executor assume. Everything the hot
  // path dereferences without its own bounds check is range-checked here.
  uint64_t expect_col = 0;
  uint64_t expect_jcol = 0;
  for (uint64_t n = 0; n < n_nodes; ++n) {
    if (tag[n] >= n_tags) return Bad("node tag out of range");
    const uint32_t nb = bucket_begin[n + 1] - bucket_begin[n];
    const int32_t nd = hist_dims[n];
    const uint32_t nfwd = fwd_begin[n + 1] - fwd_begin[n];
    const uint32_t nbwd = bwd_begin[n + 1] - bwd_begin[n];
    if (nd < 0) return Bad("negative histogram dims");
    // The scope IS the dimension list: hist_dims == |fwd| + |bwd|, and a
    // node with scope entries has a non-empty histogram (the compiler
    // asserts this when lowering covered interior steps).
    if (static_cast<uint32_t>(nd) != nfwd + nbwd) {
      return Bad("histogram dims inconsistent with scope counts");
    }
    if (nd > 0 && nb == 0) {
      return Bad("scoped node with empty histogram");
    }
    if (col_begin[n] != expect_col) {
      return Bad("histogram column offsets inconsistent");
    }
    expect_col += static_cast<uint64_t>(nd) * nb;
    for (uint32_t e = edge_begin[n]; e < edge_begin[n + 1]; ++e) {
      if (edges[e].child >= n_nodes) return Bad("edge child out of range");
      if (edges[e].child_tag >= n_tags) {
        return Bad("edge child tag out of range");
      }
      if (edges[e].parent_zero > 1) {
        return Bad("edge parent_zero flag is not 0/1");
      }
    }
    for (uint32_t f = fwd_begin[n]; f < fwd_begin[n + 1]; ++f) {
      if (fwd[f].dim < 0 || fwd[f].dim >= nd) {
        return Bad("forward dim index out of range");
      }
      if (fwd[f].from >= n_nodes || fwd[f].to >= n_nodes) {
        return Bad("forward dim node out of range");
      }
    }
    for (uint32_t b = bwd_begin[n]; b < bwd_begin[n + 1]; ++b) {
      if (bwd[b].dim < 0 || bwd[b].dim >= nd) {
        return Bad("backward dim index out of range");
      }
      if (bwd[b].from >= n_nodes || bwd[b].to >= n_nodes) {
        return Bad("backward dim node out of range");
      }
    }
    // Value layer.
    const uint32_t nvb = vbucket_begin[n + 1] - vbucket_begin[n];
    if (nvb > 0 && vtotal[n] == 0) {
      return Bad("value buckets with zero total count");
    }
    for (uint32_t b = vbucket_begin[n]; b < vbucket_begin[n + 1]; ++b) {
      const FrozenSynopsis::ValueBucket& vb = vbucket[b];
      if (vb.lo > vb.hi) return Bad("value bucket lo > hi");
      const uint64_t width =
          static_cast<uint64_t>(vb.hi) - static_cast<uint64_t>(vb.lo);
      if (width > static_cast<uint64_t>(
                      std::numeric_limits<int64_t>::max())) {
        return Bad("value bucket width overflows");
      }
    }
    for (uint32_t s = vscope_begin[n]; s < vscope_begin[n + 1]; ++s) {
      if (vscope[s].from >= n_nodes || vscope[s].to >= n_nodes) {
        return Bad("value-scope node out of range");
      }
    }
    const uint32_t njb = jbucket_begin[n + 1] - jbucket_begin[n];
    const int32_t njd = jdims[n];
    const uint32_t nvs = vscope_begin[n + 1] - vscope_begin[n];
    if (njd < 0) return Bad("negative joint dims");
    if (njb > 0 && nvs > 0 &&
        static_cast<uint32_t>(njd) < nvs + 1) {
      // DynamicVf conditions on dims 1..|scope| and reads ranges on dim 0.
      return Bad("joint dims inconsistent with value scope");
    }
    if (njb > 0 && njd == 0) return Bad("joint buckets without dims");
    if (jcol_begin[n] != expect_jcol) {
      return Bad("joint column offsets inconsistent");
    }
    expect_jcol += static_cast<uint64_t>(njd) * njb;
  }
  if (expect_col != mean.size()) {
    return Bad("histogram column total inconsistent");
  }
  if (expect_jcol != jmean.size()) {
    return Bad("joint column total inconsistent");
  }
  // The tag index must be an exact partition of the nodes: every entry in
  // tag t's bucket carries tag t, and every node appears exactly once.
  // (Range alone is not enough — a duplicated entry would double-count a
  // node in compile-time candidate enumeration while another vanishes.)
  if (tag_nodes.size() != n_nodes) {
    return Bad("tag-index entry count != node count");
  }
  {
    std::vector<bool> seen(n_nodes, false);
    for (uint64_t t = 0; t < n_tags; ++t) {
      for (uint32_t i = tag_begin[t]; i < tag_begin[t + 1]; ++i) {
        const SynNodeId node = tag_nodes[i];
        if (node >= n_nodes) return Bad("tag-index node out of range");
        if (tag[node] != t) return Bad("tag-index entry disagrees with node");
        if (seen[node]) return Bad("tag-index lists a node twice");
        seen[node] = true;
      }
    }
  }

  // Floating-point invariants the executor assumes (e.g. positive
  // fractions keep MaterializePoints' weight totals > 0, finite bounds
  // keep the conditioning arithmetic abort-free).
  for (const double v : count_arr) {
    if (!FiniteNonNegative(v)) return Bad("non-finite node count");
  }
  for (const FrozenSynopsis::Edge& e : edges) {
    if (!FiniteNonNegative(e.avg) || !FiniteNonNegative(e.exist_frac) ||
        !FiniteNonNegative(e.avg_given_exist)) {
      return Bad("non-finite edge quantities");
    }
  }
  for (const double v : bucket_frac) {
    if (!FinitePositive(v)) return Bad("bucket fraction not positive");
  }
  for (const double v : static_prob) {
    if (!FiniteNonNegative(v)) return Bad("static probability invalid");
  }
  for (size_t i = 0; i < mean.size(); ++i) {
    if (!std::isfinite(mean[i]) || !std::isfinite(lo_minus[i]) ||
        !std::isfinite(hi_plus[i]) || hi_plus[i] <= lo_minus[i] ||
        !FinitePositive(inv_span[i])) {
      return Bad("histogram column bounds invalid");
    }
  }
  for (const double v : jfrac) {
    if (!FinitePositive(v)) return Bad("joint fraction not positive");
  }
  for (size_t i = 0; i < jmean.size(); ++i) {
    if (!std::isfinite(jmean[i]) || !std::isfinite(jlo_minus[i]) ||
        !std::isfinite(jhi_plus[i]) || jhi_plus[i] <= jlo_minus[i]) {
      return Bad("joint column bounds invalid");
    }
  }

  // Everything checks out: attach the views.
  std::shared_ptr<FrozenSynopsis> fz(new FrozenSynopsis());
  fz->root_node_ = hdr.root_node;
  fz->doc_max_depth_ = hdr.doc_max_depth;
  fz->doc_size_ = hdr.doc_size;
  fz->has_backward_dims_ = flag_bwd;
  fz->tag_ = tag;
  fz->count_ = count_arr;
  fz->edge_begin_ = edge_begin;
  fz->edges_ = edges;
  fz->hist_dims_ = hist_dims;
  fz->bucket_begin_ = bucket_begin;
  fz->col_begin_ = col_begin;
  fz->bucket_frac_ = bucket_frac;
  fz->static_prob_ = static_prob;
  fz->mean_ = mean;
  fz->lo_minus_ = lo_minus;
  fz->hi_plus_ = hi_plus;
  fz->inv_span_ = inv_span;
  fz->fwd_begin_ = fwd_begin;
  fz->bwd_begin_ = bwd_begin;
  fz->fwd_ = fwd;
  fz->bwd_ = bwd;
  fz->tag_begin_ = tag_begin;
  fz->tag_nodes_ = tag_nodes;
  fz->vbucket_begin_ = vbucket_begin;
  fz->vbucket_ = vbucket;
  fz->vtotal_ = vtotal;
  fz->voffset_ = SpanOf<int64_t>(data, sec(kSecVOffset));
  fz->vscope_begin_ = vscope_begin;
  fz->vscope_ = vscope;
  fz->jdims_ = jdims;
  fz->jbucket_begin_ = jbucket_begin;
  fz->jcol_begin_ = jcol_begin;
  fz->jfrac_ = jfrac;
  fz->jlo_minus_ = jlo_minus;
  fz->jhi_plus_ = jhi_plus;
  fz->jmean_ = jmean;

  // Tag table: ids must come out dense and in order, which also rejects
  // duplicate names.
  const char* blob =
      reinterpret_cast<const char*>(data + sec(kSecTagNameBlob).offset);
  for (uint64_t t = 0; t < n_tags; ++t) {
    const std::string_view name(blob + name_off[t],
                                name_off[t + 1] - name_off[t]);
    if (fz->tags_.Intern(name) != t) {
      return Bad("duplicate tag name in tag table");
    }
  }

  fz->backing_ = std::move(keepalive);
  return std::shared_ptr<const FrozenSynopsis>(std::move(fz));
}

util::Result<std::string> SaveFrozen(const FrozenSynopsis& frozen) {
  return Xsk3Codec::Save(frozen);
}

util::Status SaveFrozenToFile(const FrozenSynopsis& frozen,
                              const std::string& path) {
  auto bytes = SaveFrozen(frozen);
  if (!bytes.ok()) return bytes.status();
  // Readers mmap these files: publish by rename, never truncate in place.
  return util::WriteFileAtomically(path, bytes.value());
}

util::Result<std::shared_ptr<const FrozenSynopsis>> LoadFrozen(
    std::shared_ptr<const util::MappedFile> file) {
  if (file == nullptr) {
    return util::Status::InvalidArgument("LoadFrozen: null mapping");
  }
  const uint8_t* data = file->data();
  const size_t size = file->size();
  return Xsk3Codec::Load(data, size,
                         std::shared_ptr<const void>(std::move(file)));
}

util::Result<std::shared_ptr<const FrozenSynopsis>> LoadFrozenFile(
    const std::string& path) {
  auto mapped = util::MappedFile::Open(path);
  if (!mapped.ok()) return mapped.status();
  return LoadFrozen(std::move(mapped).value());
}

util::Result<std::shared_ptr<const FrozenSynopsis>> LoadFrozenFromBytes(
    std::string_view bytes) {
  // Copy into 8-byte-aligned storage (std::string gives no alignment
  // guarantee; the image contains doubles and 64-bit words).
  auto buf =
      std::make_shared<std::vector<uint64_t>>((bytes.size() + 7) / 8, 0);
  if (!bytes.empty()) {
    std::memcpy(buf->data(), bytes.data(), bytes.size());
  }
  const uint8_t* data = reinterpret_cast<const uint8_t*>(buf->data());
  return Xsk3Codec::Load(data, bytes.size(),
                         std::shared_ptr<const void>(std::move(buf)));
}

}  // namespace xsketch::core
