#include "perfmodel/roofline.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>

#include "support/check.hpp"

namespace cpx::perfmodel {

double RooflineMachine::ridge_intensity() const {
  return peak_gbs > 0.0 ? peak_gflops / peak_gbs : 0.0;
}

double RooflineMachine::attainable_gflops(double intensity) const {
  return std::min(peak_gflops, peak_gbs * intensity);
}

RooflinePoint classify(const KernelSample& sample,
                       const RooflineMachine& machine) {
  RooflinePoint p;
  p.name = sample.name;
  if (sample.bytes > 0) {
    p.intensity =
        static_cast<double>(sample.flops) / static_cast<double>(sample.bytes);
  }
  if (sample.seconds > 0.0) {
    p.gflops = static_cast<double>(sample.flops) / sample.seconds * 1e-9;
    p.gbs = static_cast<double>(sample.bytes) / sample.seconds * 1e-9;
  }
  p.ceiling_gflops = machine.attainable_gflops(p.intensity);
  if (p.ceiling_gflops > 0.0) {
    p.fraction_of_roof = p.gflops / p.ceiling_gflops;
  }
  p.memory_bound = p.intensity < machine.ridge_intensity();
  return p;
}

double roofline_seconds(std::int64_t flops, std::int64_t bytes,
                        const RooflineMachine& machine) {
  CPX_REQUIRE(machine.peak_gflops > 0.0 && machine.peak_gbs > 0.0,
              "roofline_seconds: machine ceilings must be positive");
  const double compute_s =
      static_cast<double>(flops) / (machine.peak_gflops * 1e9);
  const double memory_s =
      static_cast<double>(bytes) / (machine.peak_gbs * 1e9);
  return std::max(compute_s, memory_s);
}

namespace {

/// Kernel names come from the metrics registry (plain ASCII identifiers),
/// so escaping only needs the JSON-mandatory characters.
void put_escaped(std::ostream& os, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\';
    }
    os << c;
  }
}

}  // namespace

void write_roofline_json(std::ostream& out, const RooflineMachine& machine,
                         std::span<const KernelSample> samples) {
  out << std::setprecision(17);
  out << "{\n  \"schema\": \"cpx-roofline-v1\",\n"
      << "  \"machine\": {\"peak_gflops\": " << machine.peak_gflops
      << ", \"peak_gbs\": " << machine.peak_gbs
      << ", \"ridge_intensity\": " << machine.ridge_intensity() << "},\n"
      << "  \"kernels\": [";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const KernelSample& s = samples[i];
    const RooflinePoint p = classify(s, machine);
    out << (i == 0 ? "\n" : ",\n") << "    {\"name\": \"";
    put_escaped(out, s.name);
    out << "\", \"flops\": " << s.flops << ", \"bytes\": " << s.bytes
        << ", \"seconds\": " << s.seconds
        << ", \"intensity\": " << p.intensity
        << ", \"gflops\": " << p.gflops << ", \"gbs\": " << p.gbs
        << ", \"ceiling_gflops\": " << p.ceiling_gflops
        << ", \"fraction_of_roof\": " << p.fraction_of_roof
        << ", \"memory_bound\": " << (p.memory_bound ? "true" : "false")
        << "}";
  }
  out << "\n  ]\n}\n";
}

}  // namespace cpx::perfmodel
