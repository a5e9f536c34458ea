#include "mgcfd/euler.hpp"

#include <cmath>

#include "support/check.hpp"

namespace cpx::mgcfd {

double pressure(const State& u) {
  const double rho = u[0];
  const double ke =
      0.5 * (u[1] * u[1] + u[2] * u[2] + u[3] * u[3]) / rho;
  return (kGamma - 1.0) * (u[4] - ke);
}

State freestream(double mach, double rho, double p,
                 const mesh::Vec3& direction) {
  const double norm = std::sqrt(direction.x * direction.x +
                                direction.y * direction.y +
                                direction.z * direction.z);
  CPX_REQUIRE(norm > 0.0, "freestream: zero direction");
  const double a = std::sqrt(kGamma * p / rho);
  const double speed = mach * a;
  const mesh::Vec3 v{speed * direction.x / norm, speed * direction.y / norm,
                     speed * direction.z / norm};
  State u;
  u[0] = rho;
  u[1] = rho * v.x;
  u[2] = rho * v.y;
  u[3] = rho * v.z;
  u[4] = p / (kGamma - 1.0) +
         0.5 * rho * (v.x * v.x + v.y * v.y + v.z * v.z);
  return u;
}

}  // namespace cpx::mgcfd
