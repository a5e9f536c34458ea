#include "cpx/field_coupler.hpp"

#include <bit>
#include <cmath>

#include "ckpt/snapshot.hpp"
#include "support/check.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace cpx::coupler {
namespace {

constexpr std::int64_t kInterfaceGrain = 4096;  ///< cells/points per task

}  // namespace

std::vector<mesh::CellId> extract_plane_cells(
    const mesh::UnstructuredMesh& mesh, double z_plane, double tolerance) {
  CPX_REQUIRE(tolerance > 0.0, "extract_plane_cells: bad tolerance");
  // Scan cell chunks in parallel, then concatenate the per-chunk hits in
  // chunk order — same cell ordering as the serial scan.
  const std::int64_t nc = mesh.num_cells();
  const std::int64_t nchunks = support::num_chunks(0, nc, kInterfaceGrain);
  std::vector<support::Padded<std::vector<mesh::CellId>>> found(
      static_cast<std::size_t>(nchunks));
  support::parallel_chunks(0, nc, kInterfaceGrain, [&](std::int64_t chunk,
                                                       std::int64_t c0,
                                                       std::int64_t c1, int) {
    auto& hits = found[static_cast<std::size_t>(chunk)].value;
    for (mesh::CellId c = c0; c < c1; ++c) {
      if (std::abs(mesh.centroids()[static_cast<std::size_t>(c)].z -
                   z_plane) <= tolerance) {
        hits.push_back(c);
      }
    }
  });
  std::vector<mesh::CellId> cells;
  for (const auto& hits : found) {
    cells.insert(cells.end(), hits.value.begin(), hits.value.end());
  }
  return cells;
}

std::vector<mesh::Vec3> gather_centroids(
    const mesh::UnstructuredMesh& mesh,
    std::span<const mesh::CellId> cells) {
  std::vector<mesh::Vec3> pts(cells.size());
  support::parallel_for(
      0, static_cast<std::int64_t>(cells.size()), kInterfaceGrain,
      [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          const mesh::CellId c = cells[static_cast<std::size_t>(i)];
          CPX_REQUIRE(c >= 0 && c < mesh.num_cells(),
                      "gather_centroids: bad cell " << c);
          pts[static_cast<std::size_t>(i)] =
              mesh.centroids()[static_cast<std::size_t>(c)];
        }
      });
  return pts;
}

FieldCoupler::FieldCoupler(std::vector<mesh::Vec3> donor_points,
                           std::vector<mesh::Vec3> target_points,
                           InterfaceKind kind, int stencil_size)
    : donors_(std::move(donor_points)),
      targets_(std::move(target_points)),
      kind_(kind),
      stencil_size_(stencil_size) {
  CPX_REQUIRE(!donors_.empty() && !targets_.empty(),
              "FieldCoupler: empty interface");
  CPX_REQUIRE(stencil_size >= 1, "FieldCoupler: bad stencil size");
}

void FieldCoupler::advance_rotation(double radians) {
  CPX_REQUIRE(kind_ == InterfaceKind::kSlidingPlane,
              "advance_rotation: only sliding-plane interfaces move");
  rotation_ += radians;
}

void FieldCoupler::remap() {
  CPX_METRICS_SCOPE("coupler/remap");
  std::span<const mesh::Vec3> moved = donors_;
  if (rotation_ != 0.0) {
    rotated_.resize(donors_.size());
    rotate_z(donors_, rotation_, rotated_);
    moved = rotated_;
  }
  tree_.rebuild(moved);
  stencils_.resize(targets_.size());
  fill_idw_stencils(tree_, targets_, stencil_size_, stencils_, lanes_);
  if (check::deep()) {
    validate_stencils(stencils_, donors_.size());
  }
  mapped_rotation_ = rotation_;
  ++remap_count_;
}

void FieldCoupler::transfer(std::span<const double> donor_field,
                            std::span<double> target_field) {
  CPX_REQUIRE(donor_field.size() == donors_.size(),
              "transfer: donor field size mismatch");
  CPX_REQUIRE(target_field.size() == targets_.size(),
              "transfer: target field size mismatch");
  // The transfer is the mini-app's stand-in for the inter-code exchange, so
  // it is tagged as communication; byte volume counts both field payloads.
  CPX_METRICS_SCOPE_COMM("coupler/exchange");
  if (support::metrics::enabled()) {
    support::metrics::counter_add(
        "coupler/exchange_bytes",
        static_cast<std::int64_t>((donor_field.size() + target_field.size()) *
                                  sizeof(double)));
  }
  const bool never_mapped = remap_count_ == 0;
  const bool moved = kind_ == InterfaceKind::kSlidingPlane &&
                     rotation_ != mapped_rotation_;
  if (never_mapped || moved) {
    remap();
  }
  apply_stencils(stencils_, donor_field, target_field);
}

std::uint64_t FieldCoupler::stencil_hash() const {
  std::uint64_t h = 0x637068'636f7570ULL;  // arbitrary nonzero start
  for (const Stencil& s : stencils_) {
    for (std::size_t i = 0; i < s.donors.size(); ++i) {
      h = hash_mix(h, static_cast<std::uint64_t>(s.donors[i]),
                   std::bit_cast<std::uint64_t>(s.weights[i]));
    }
    h = hash_mix(h, s.donors.size());
  }
  return h;
}

void FieldCoupler::serialize(ckpt::Writer& w) const {
  w.begin_section("coupler/field");
  w.put_u64(donors_.size());
  w.put_u64(targets_.size());
  w.put_u8(kind_ == InterfaceKind::kSlidingPlane ? 1 : 0);
  w.put_u32(static_cast<std::uint32_t>(stencil_size_));
  w.put_f64(rotation_);
  w.put_f64(mapped_rotation_);
  w.put_u32(static_cast<std::uint32_t>(remap_count_));
  w.put_u64(stencil_hash());
  w.end_section();
}

void FieldCoupler::restore(ckpt::Reader& r) {
  r.open_section("coupler/field");
  const std::uint64_t donors = r.get_u64();
  const std::uint64_t targets = r.get_u64();
  const InterfaceKind kind = r.get_u8() != 0 ? InterfaceKind::kSlidingPlane
                                             : InterfaceKind::kSteadyState;
  const auto stencil_size = static_cast<int>(r.get_u32());
  CPX_CHECK_MSG(donors == donors_.size() && targets == targets_.size() &&
                    kind == kind_ && stencil_size == stencil_size_,
                "FieldCoupler::restore: snapshot was taken from a different "
                "interface");
  const double rotation = r.get_f64();
  const double mapped_rotation = r.get_f64();
  const auto remaps = static_cast<int>(r.get_u32());
  const std::uint64_t expected_hash = r.get_u64();
  r.end_section();

  // The stencils themselves are not in the snapshot: they are a pure
  // function of the (fixed) geometry and the rotation at the last remap,
  // so rebuild them at that rotation and check the digest — a cheap
  // validation-on-load that the geometry this coupler was constructed
  // with matches the checkpointed run.
  stencils_.clear();
  if (remaps > 0) {
    rotation_ = mapped_rotation;
    remap();
  }
  rotation_ = rotation;
  mapped_rotation_ = mapped_rotation;
  remap_count_ = remaps;
  CPX_CHECK_MSG(stencil_hash() == expected_hash,
                "FieldCoupler::restore: rebuilt stencils disagree with the "
                "checkpointed mapping (geometry mismatch?)");
}

}  // namespace cpx::coupler
