#include "perfmodel/allocator.hpp"

#include <algorithm>

#include "support/check.hpp"
#include "support/metrics.hpp"

namespace cpx::perfmodel {

double InstanceModel::time(int cores) const {
  return scale * curve.time_at(static_cast<double>(cores));
}

InstanceModel InstanceModel::make(std::string name, ScalingCurve curve,
                                  double base_size, double base_iters,
                                  double size, double iters, int min_ranks) {
  CPX_REQUIRE(base_size > 0.0 && base_iters > 0.0,
              "InstanceModel::make: bad base case");
  InstanceModel m;
  m.name = std::move(name);
  m.curve = std::move(curve);
  m.scale = (size / base_size) * (iters / base_iters);
  m.min_ranks = min_ranks;
  return m;
}

namespace {

/// One class of components (applications or coupler units) under Alg 1,
/// with each component's curve time at its current rank count r cached,
/// and its gain time(r) - time(r + 1) (zero at its rank cap). time() is a
/// pure function of the model and the core count, so the cache holds the
/// bits a fresh evaluation would give; only the component that was just
/// granted a core is re-evaluated.
class GreedyClass {
 public:
  GreedyClass(std::span<const InstanceModel> models, std::vector<int>& ranks)
      : models_(models), ranks_(ranks) {
    now_.resize(models.size());
    gain_.resize(models.size());
    for (std::size_t i = 0; i < models.size(); ++i) {
      refresh(i);
    }
  }

  /// Index of the slowest component at the current allocation, or -1 when
  /// the class is empty.
  int slowest() const {
    int worst = -1;
    double worst_time = -1.0;
    for (std::size_t i = 0; i < now_.size(); ++i) {
      if (now_[i] > worst_time) {
        worst_time = now_[i];
        worst = static_cast<int>(i);
      }
    }
    return worst;
  }

  /// Runtime reduction from granting one more core to component `i`
  /// (zero when the component is at its rank cap, or for i = -1).
  double gain(int i) const {
    return i < 0 ? 0.0 : gain_[static_cast<std::size_t>(i)];
  }

  void grant(int i) {
    const auto k = static_cast<std::size_t>(i);
    ++ranks_[k];
    refresh(k);
  }

  /// Time of the slowest component (0 for an empty class).
  double max_time() const {
    double worst = 0.0;
    for (const double t : now_) {
      worst = std::max(worst, t);
    }
    return worst;
  }

 private:
  void refresh(std::size_t k) {
    const InstanceModel& m = models_[k];
    now_[k] = m.time(ranks_[k]);
    gain_[k] = ranks_[k] + 1 > m.max_ranks ? 0.0
                                           : now_[k] - m.time(ranks_[k] + 1);
  }

  std::span<const InstanceModel> models_;
  std::vector<int>& ranks_;
  std::vector<double> now_;   ///< time at ranks_[i]
  std::vector<double> gain_;  ///< time at ranks_[i] minus time at + 1
};

}  // namespace

Allocation distribute_ranks(std::span<const InstanceModel> apps,
                            std::span<const InstanceModel> cus,
                            int total_ranks) {
  CPX_METRICS_SCOPE("perfmodel/distribute_ranks");
  CPX_REQUIRE(!apps.empty(), "distribute_ranks: no application instances");
  Allocation alloc;
  alloc.app_ranks.reserve(apps.size());
  alloc.cu_ranks.reserve(cus.size());

  int used = 0;
  for (const InstanceModel& m : apps) {
    CPX_REQUIRE(m.min_ranks >= 1 && m.min_ranks <= m.max_ranks,
                "distribute_ranks: bad rank bounds for " << m.name);
    alloc.app_ranks.push_back(m.min_ranks);
    used += m.min_ranks;
  }
  for (const InstanceModel& m : cus) {
    CPX_REQUIRE(m.min_ranks >= 1 && m.min_ranks <= m.max_ranks,
                "distribute_ranks: bad rank bounds for " << m.name);
    alloc.cu_ranks.push_back(m.min_ranks);
    used += m.min_ranks;
  }
  CPX_REQUIRE(used <= total_ranks,
              "distribute_ranks: budget " << total_ranks
                                          << " below the minima " << used);

  GreedyClass app_class(apps, alloc.app_ranks);
  GreedyClass cu_class(cus, alloc.cu_ranks);
  for (int remaining = total_ranks - used; remaining > 0; --remaining) {
    const int app_i = app_class.slowest();
    const int cu_i = cu_class.slowest();
    const double app_gain = app_class.gain(app_i);
    const double cu_gain = cu_class.gain(cu_i);
    if (cu_i >= 0 && cu_gain > app_gain && cu_gain > 0.0) {
      cu_class.grant(cu_i);
    } else if (app_gain > 0.0) {
      app_class.grant(app_i);
    } else if (cu_i >= 0 && cu_gain > 0.0) {
      cu_class.grant(cu_i);
    } else {
      // Every component is at its cap or past its scaling optimum; the
      // leftover budget has nowhere useful to go (the paper observes the
      // same with the Base-STC case at 40k cores).
      break;
    }
  }

  alloc.app_time = app_class.max_time();
  alloc.cu_time = cu_class.max_time();
  alloc.predicted_runtime = alloc.app_time + alloc.cu_time;
  alloc.total_ranks = total_ranks;
  if (check::deep()) {
    validate_allocation(alloc, apps, cus, total_ranks);
  }
  return alloc;
}

void validate_allocation(const Allocation& alloc,
                         std::span<const InstanceModel> apps,
                         std::span<const InstanceModel> cus,
                         int total_ranks) {
  CPX_CHECK_MSG(alloc.app_ranks.size() == apps.size() &&
                    alloc.cu_ranks.size() == cus.size(),
                "allocation does not cover every instance");
  int used = 0;
  double app_time = 0.0;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const int r = alloc.app_ranks[i];
    CPX_CHECK_MSG(r >= apps[i].min_ranks && r <= apps[i].max_ranks,
                  "app " << apps[i].name << " allocated " << r
                         << " ranks outside [" << apps[i].min_ranks << ", "
                         << apps[i].max_ranks << "]");
    used += r;
    app_time = std::max(app_time, apps[i].time(r));
  }
  double cu_time = 0.0;
  for (std::size_t i = 0; i < cus.size(); ++i) {
    const int r = alloc.cu_ranks[i];
    CPX_CHECK_MSG(r >= cus[i].min_ranks && r <= cus[i].max_ranks,
                  "coupler unit " << cus[i].name << " allocated " << r
                                  << " ranks outside [" << cus[i].min_ranks
                                  << ", " << cus[i].max_ranks << "]");
    used += r;
    cu_time = std::max(cu_time, cus[i].time(r));
  }
  CPX_CHECK_MSG(used <= total_ranks, "allocation uses " << used
                                                        << " ranks, budget is "
                                                        << total_ranks);
  CPX_CHECK_MSG(alloc.app_time == app_time && alloc.cu_time == cu_time,
                "reported class times do not match the scaling curves");
  CPX_CHECK_MSG(alloc.predicted_runtime == alloc.app_time + alloc.cu_time,
                "predicted runtime is not app_time + cu_time");
}

}  // namespace cpx::perfmodel
