// Fuzz target: LoadFrozenFromBytes must reject arbitrary bytes cleanly
// (no crash, no XS_CHECK abort — the loader's validation pass is the only
// thing standing between a hostile image and the executor's unchecked
// reads). Any image it accepts must behave like a real synopsis: its
// accessors stay in bounds, a query compiled from its own tag table
// executes without tripping an executor invariant, and re-saving it is a
// fixed point of the XSK3 encoding.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "core/compile.h"
#include "core/frozen_io.h"
#include "core/xsk3_format.h"
#include "query/xpath_parser.h"
#include "util/check.h"

namespace {

// Random mutations almost never keep a section's CRC32 intact, and the
// loader checks every checksum before its structural validation. So the
// target re-stamps the checksums of whatever sections lie inside the
// input, and mutated bytes reach the structural checks behind the CRCs.
std::string WithValidChecksums(std::string_view bytes) {
  using xsketch::core::Xsk3Header;
  using xsketch::core::Xsk3Section;
  std::string image(bytes);
  const size_t meta_bytes =
      sizeof(Xsk3Header) +
      xsketch::core::kXsk3SectionCount * sizeof(Xsk3Section);
  if (image.size() < meta_bytes) return image;
  for (uint32_t i = 0; i < xsketch::core::kXsk3SectionCount; ++i) {
    char* entry = image.data() + sizeof(Xsk3Header) + i * sizeof(Xsk3Section);
    Xsk3Section sec;
    std::memcpy(&sec, entry, sizeof(sec));
    if (sec.offset > image.size() || sec.bytes > image.size() - sec.offset) {
      continue;
    }
    sec.crc = xsketch::core::Crc32(image.data() + sec.offset, sec.bytes);
    std::memcpy(entry, &sec, sizeof(sec));
  }
  const size_t crc_off = offsetof(Xsk3Header, header_crc);
  std::memset(image.data() + crc_off, 0, sizeof(uint32_t));
  const uint32_t crc = xsketch::core::Crc32(image.data(), meta_bytes);
  std::memcpy(image.data() + crc_off, &crc, sizeof(crc));
  return image;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string image = WithValidChecksums(
      std::string_view(reinterpret_cast<const char*>(data), size));
  auto frozen = xsketch::core::LoadFrozenFromBytes(image);
  if (!frozen.ok()) return 0;

  const xsketch::core::FrozenSynopsis& syn = *frozen.value();

  // Walk every accessor the executor uses so out-of-bounds spans surface
  // under ASan even on paths a compiled query happens not to touch.
  double sink = 0.0;
  for (xsketch::core::SynNodeId n = 0; n < syn.node_count(); ++n) {
    sink += syn.count(n);
    for (const auto* e = syn.edges_begin(n); e != syn.edges_end(n); ++e) {
      sink += syn.count(e->child) + e->avg + e->exist_frac;
    }
    const uint32_t nb = syn.bucket_count(n);
    for (uint32_t b = 0; b < nb; ++b) {
      sink += syn.fractions(n)[b] + syn.static_probs(n)[b];
      for (int d = 0; d < syn.hist_dims(n); ++d) {
        sink += syn.means(n, d)[b] + syn.lo_minus(n, d)[b] +
                syn.hi_plus(n, d)[b] + syn.inv_span(n, d)[b];
      }
    }
    for (const auto* f = syn.fwd_begin(n); f != syn.fwd_end(n); ++f) {
      sink += syn.count(f->to);
    }
    for (const auto* b = syn.bwd_begin(n); b != syn.bwd_end(n); ++b) {
      sink += syn.count(b->to);
    }
    if (syn.node_has_values(n)) {
      sink += syn.ValueFraction(n, -4, 4) + syn.value_offset(n);
    }
    for (const auto& ref : syn.value_scope(n)) sink += syn.count(ref.to);
  }
  XS_CHECK_MSG(sink == sink, "accepted image produced NaN node data");
  for (uint32_t t = 0; t < syn.tags().size(); ++t) {
    for (xsketch::core::SynNodeId n : syn.NodesWithTag(t)) {
      XS_CHECK_MSG(syn.tag(n) == t, "tag index entry disagrees with node");
    }
  }

  // Compile + execute a query over the image's own root tag: the frozen
  // doubles have been validated, so execution must not trip an XS_CHECK.
  const std::string root_tag(syn.tags().Get(syn.tag(syn.root_node())));
  auto q = xsketch::query::ParsePath("//" + root_tag, syn.tags());
  if (q.ok()) {
    const xsketch::core::TwigCompiler compiler(frozen.value());
    auto plan = compiler.Compile(q.value());
    if (plan.ok()) (void)plan.value()->Execute();
  }

  // Accepted images re-encode to a loadable fixed point.
  auto saved = xsketch::core::SaveFrozen(syn);
  XS_CHECK_MSG(saved.ok(), "an accepted image must re-save");
  auto again = xsketch::core::LoadFrozenFromBytes(saved.value());
  XS_CHECK_MSG(again.ok(), "a re-saved image must load");
  auto saved_again = xsketch::core::SaveFrozen(*again.value());
  XS_CHECK_MSG(saved_again.ok() && saved_again.value() == saved.value(),
               "save -> load -> save must be a fixed point");
  return 0;
}
