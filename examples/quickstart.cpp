// Quickstart: the library in ~60 lines.
//
// Builds a toy coupled simulation — two MG-CFD compressor rows joined by a
// CPX sliding-plane coupler unit — on the virtual ARCHER2-like cluster,
// steps it, and prints where the (virtual) time went. Then benchmarks one
// row standalone, fits a scaling curve, and uses Algorithm 1 to split a
// core budget between the two rows.
//
//   ./quickstart [--cores=1024] [--steps=20]

#include <iostream>
#include <memory>

#include "cpx/unit.hpp"
#include "mgcfd/instance.hpp"
#include "perfmodel/allocator.hpp"
#include "perfmodel/sweep.hpp"
#include "sim/cluster.hpp"
#include "support/check.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) try {
  using namespace cpx;
  const Options opts = Options::parse(argc, argv);
  opts.reject_unknown({"cores", "steps"});
  const int cores = static_cast<int>(opts.get_int("cores", 1024));
  const int steps = static_cast<int>(opts.get_int("steps", 20));

  // --- 1. A coupled pair of density-solver rows on the virtual cluster ---
  sim::Cluster cluster(sim::MachineModel::archer2(), cores);
  const int row_ranks = (cores - 16) / 2;
  mgcfd::Instance rotor("rotor", 24'000'000, {0, row_ranks});
  mgcfd::Instance stator("stator", 24'000'000, {row_ranks, 2 * row_ranks});
  coupler::UnitConfig cu_config;
  cu_config.kind = coupler::InterfaceKind::kSlidingPlane;
  cu_config.interface_cells = 100'000;  // 0.42% of the smaller mesh
  coupler::CouplerUnit cu("cu_rotor_stator", cu_config,
                          {2 * row_ranks, cores}, rotor, stator);

  for (int s = 0; s < steps; ++s) {
    rotor.step(cluster);
    stator.step(cluster);
    cu.exchange(cluster);  // sliding plane: remapped every step
  }
  std::cout << "coupled " << steps << " steps on " << cores
            << " virtual cores: runtime = " << cluster.max_clock()
            << " virtual seconds\n";

  // Where did rank 0's time go?
  Table where({"region", "compute (s)", "comm (s)"});
  const auto& profile = cluster.profile();
  for (std::size_t g = 0; g < profile.num_regions(); ++g) {
    const auto times = profile.rank_region(0, static_cast<sim::RegionId>(g));
    if (times.total() > 0.0) {
      where.add_row({profile.region_name(static_cast<sim::RegionId>(g)),
                     times.compute, times.comm});
    }
  }
  where.print(std::cout);

  // --- 2. Benchmark, fit, allocate (the paper's §V pipeline in 10 lines).
  const std::vector<int> sweep = {64, 128, 256, 512, 1024, 2048};
  const perfmodel::ScalingCurve curve = perfmodel::fit_scaling(
      [](sim::RankRange r) {
        return std::make_unique<mgcfd::Instance>("row", 24'000'000, r);
      },
      cluster.machine(), sweep);
  std::cout << "\nfitted T(p) = " << curve.coefficients()[0] << "/p + "
            << curve.coefficients()[1] << " + "
            << curve.coefficients()[2] << "*log2(p) + "
            << curve.coefficients()[3] << "*p   (max fit error "
            << 100.0 * curve.max_fit_error() << "%)\n";

  // One row has 3x the mesh: Alg 1 gives it ~3x the ranks.
  perfmodel::InstanceModel small =
      perfmodel::InstanceModel::make("rotor_24m", curve, 24e6, 1, 24e6, 1);
  perfmodel::InstanceModel big =
      perfmodel::InstanceModel::make("stator_72m", curve, 24e6, 1, 72e6, 1);
  const perfmodel::Allocation alloc =
      perfmodel::distribute_ranks(std::vector{small, big}, {}, cores);
  std::cout << "Alg 1 splits " << cores << " cores as rotor_24m="
            << alloc.app_ranks[0] << ", stator_72m=" << alloc.app_ranks[1]
            << " (predicted runtime " << alloc.predicted_runtime
            << " s/step)\n";
  return 0;
} catch (const cpx::CheckError& e) {
  std::cerr << "quickstart: " << e.what() << '\n';
  return 2;
}
