#pragma once  // cpx-lint: allow(unreached-header) — the ckpt rule reads it
// Registry of checkpointed classes (cpxcheck rule `ckpt`, docs/checkpoint.md).
//
// Every class that implements a `serialize(ckpt::Writer&)` /
// `restore(ckpt::Reader&)` pair must be listed here, and every listed
// class must still implement the pair — tools/cpxcheck cross-checks
// both directions, and additionally verifies that every data member of a
// registered class is mentioned in its serialize AND restore bodies (or
// carries an allow marker for rule `ckpt` with a reason, for members that
// are deliberately rebuilt instead of saved: scratch buffers, cached
// plans, derived structure). Adding a field to a checkpointed class
// without threading it through the snapshot is exactly the hidden-state
// drift this PR's restart contract exists to catch.
//
// The names below are matched against `ClassName::serialize` definitions;
// keep one per line so the lint diff stays readable.

namespace cpx::ckpt {

inline constexpr const char* kCheckpointedClasses[] = {
    "sim::Cluster",
    "sim::Profile",
    "simpic::Pic",
    "simpic::DistributedPic",
    "spray::Cloud",
    "mgcfd::DistributedSolver",
    "amg::AmgHierarchy",
    "coupler::FieldCoupler",
    "coupler::CouplerUnit",
    "workflow::CoupledSimulation",
};

}  // namespace cpx::ckpt
